"""Radiometric thermal rasters: the container and its summary statistics.

A thermal raster is a single-band grid where every pixel holds an absolute
temperature in degrees Celsius. Pixels outside the physically plausible range
are flagged invalid, never clamped.
The file reader, ``tiff.load_thermal_tiff``, decodes its samples through
``ThermalRaster.from_samples``.

A raster's summary statistics are computed once, on first use, and cached on
the raster: every ``summarize`` of one raster returns the same object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .records import Record

# Plausible radiometric range for wildfire scenes; anything outside is sensor
# garbage and gets masked out.
TEMP_MIN_C = -100.0
TEMP_MAX_C = 2000.0


class RasterError(Exception):
    """Base error for raster loading and statistics."""


class EmptyRasterError(RasterError):
    """Raised when an operation requires at least one valid pixel."""


class RasterFormatError(RasterError):
    """Malformed raster file. Carries the byte offset and TIFF tag id when known."""

    def __init__(self, message: str, *, offset: int | None = None, tag: int | None = None):
        self.offset = offset
        self.tag = tag
        where = []
        if tag is not None:
            where.append(f"tag {tag}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        if where:
            message = f"{message} [{', '.join(where)}]"
        super().__init__(message)


@dataclass(frozen=True)
class ThermalRaster:
    """Immutable single-band temperature grid.

    ``temps[y, x]`` (float64) is the temperature in Celsius at pixel
    ``(x, y)`` with ``x`` in ``[0, width)``, ``y`` in ``[0, height)`` and
    origin top-left.
    ``valid_mask[y, x]`` is False for non-finite or out-of-range pixels;
    invalid temps retain their raw value for diagnostics.

    Both arrays are frozen on construction and ``temps`` must never be
    written afterwards: ``summary`` is computed from them once and cached.
    """

    width: int
    height: int
    temps: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"raster dimensions must be >= 1, got {self.width}x{self.height}")
        if self.temps.shape != (self.height, self.width):
            raise ValueError(
                f"temps shape {self.temps.shape} does not match {self.height}x{self.width}"
            )
        if self.temps.dtype != np.float64:
            raise ValueError(f"temps must be float64, got {self.temps.dtype}")
        if self.valid_mask.shape != self.temps.shape or self.valid_mask.dtype != np.bool_:
            raise ValueError("valid_mask must be a bool array with the same shape as temps")
        self.temps.setflags(write=False)
        self.valid_mask.setflags(write=False)

    @classmethod
    def from_array(cls, temps: np.ndarray) -> ThermalRaster:
        """Build a raster from a 2D Celsius array, masking implausible pixels.

        Non-finite values and values outside [TEMP_MIN_C, TEMP_MAX_C] are
        marked invalid. The raster keeps its own copy of ``temps``, so the
        caller's array stays writable and later writes to it do not reach
        the raster.
        """
        return cls._own(np.array(temps, dtype=np.float64, order="C"))

    @classmethod
    def from_samples(cls, raw: np.ndarray, scale: float | None, offset: float | None) -> ThermalRaster:
        """Decode a 2D array of raw sensor samples into a raster.

        A given ``scale`` or ``offset`` maps samples to ``raw * scale +
        offset``; the Celsius values are then masked as ``from_array`` does.
        """
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf results are masked invalid
            temps = raw.astype(np.float64)
            if scale is not None or offset is not None:
                temps *= float(scale if scale is not None else 1.0)
                temps += float(offset or 0.0)
        return cls._own(temps)

    @classmethod
    def _own(cls, temps: np.ndarray) -> ThermalRaster:
        """``from_array`` on a C-contiguous float64 array the raster may keep and freeze."""
        if temps.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {temps.shape}")
        height, width = temps.shape
        valid_mask = np.isfinite(temps) & (temps >= TEMP_MIN_C) & (temps <= TEMP_MAX_C)
        return cls(width=width, height=height, temps=temps, valid_mask=valid_mask)

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid_mask))

    @cached_property
    def summary(self) -> RadiometricSummary:
        """Min/max/mean/std and threshold coverage over valid pixels.

        Raises EmptyRasterError on every access when no pixel is valid. Takes
        ``np.mean``'s and ``np.std``'s float steps over ``temps[valid_mask]``
        and squares the deviations in place in that one compacted copy.
        """
        n = self.valid_count
        if n == 0:
            raise EmptyRasterError("empty raster: no valid pixels")
        vals = self.temps[self.valid_mask]
        min_c, max_c = float(vals.min()), float(vals.max())
        pct_above_200 = 100.0 * int(np.count_nonzero(vals >= 200.0)) / n
        pct_above_400 = 100.0 * int(np.count_nonzero(vals >= 400.0)) / n
        mean = np.add.reduce(vals) / n
        dev = np.subtract(vals, mean, out=vals)
        np.square(dev, out=dev)
        return RadiometricSummary(
            min_c=min_c,
            max_c=max_c,
            mean_c=float(mean),
            std_c=math.sqrt(np.add.reduce(dev) / n),
            pct_above_200=pct_above_200,
            pct_above_400=pct_above_400,
        )


@dataclass(frozen=True)
class RadiometricSummary(Record):
    """Per-frame temperature statistics over valid pixels.

    ``std_c`` is the population standard deviation. Percentages use the
    inclusive ``>= threshold`` convention and live in [0, 100].
    """

    min_c: float
    max_c: float
    mean_c: float
    std_c: float
    pct_above_200: float
    pct_above_400: float


def coverage_fraction(raster: ThermalRaster, tau: float) -> float:
    """Percentage of valid pixels with temperature >= ``tau`` Celsius.

    The threshold is inclusive and invalid pixels are excluded from both the
    numerator and the denominator.
    """
    n_valid = raster.valid_count
    if n_valid == 0:
        raise EmptyRasterError("empty raster: no valid pixels")
    n_hot = int(np.count_nonzero(raster.valid_mask & (raster.temps >= tau)))
    return 100.0 * n_hot / n_valid


def summarize(raster: ThermalRaster) -> RadiometricSummary:
    """Min/max/mean/std and threshold coverage over valid pixels: ``raster.summary``."""
    return raster.summary
