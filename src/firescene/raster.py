"""Radiometric thermal rasters: the container and its summary statistics.

A thermal raster is a single-band grid where every pixel holds an absolute
temperature in degrees Celsius. Pixels outside the physically plausible range
or equal to a declared no-data value are flagged invalid, never clamped.
The file reader, ``tiff.load_thermal_tiff``, decodes its samples through
``ThermalRaster.from_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``temps[y, x]`` is the temperature in Celsius at pixel ``(x, y)`` with
    ``x`` in ``[0, width)``, ``y`` in ``[0, height)`` and origin top-left.
    ``valid_mask[y, x]`` is False for missing, non-finite, or out-of-range
    pixels; invalid temps retain their raw value for diagnostics.
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
        if self.valid_mask.shape != self.temps.shape or self.valid_mask.dtype != np.bool_:
            raise ValueError("valid_mask must be a bool array with the same shape as temps")
        self.temps.setflags(write=False)
        self.valid_mask.setflags(write=False)

    @classmethod
    def from_array(cls, temps: np.ndarray, valid_mask: np.ndarray | None = None) -> ThermalRaster:
        """Build a raster from a 2D Celsius array, masking implausible pixels.

        Non-finite values and values outside [TEMP_MIN_C, TEMP_MAX_C] are
        marked invalid on top of any caller-supplied mask.
        """
        temps = np.ascontiguousarray(temps, dtype=np.float64)
        if temps.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {temps.shape}")
        height, width = temps.shape
        plausible = np.isfinite(temps) & (temps >= TEMP_MIN_C) & (temps <= TEMP_MAX_C)
        if valid_mask is None:
            valid_mask = plausible
        else:
            valid_mask = np.asarray(valid_mask, dtype=bool) & plausible
        return cls(width=width, height=height, temps=temps, valid_mask=np.ascontiguousarray(valid_mask))

    @classmethod
    def from_samples(
        cls, raw: np.ndarray, nodata: float | None, scale: float | None, offset: float | None
    ) -> ThermalRaster:
        """Decode a 2D array of raw sensor samples into a raster.

        ``nodata`` (cast to the sample dtype) marks pixels invalid; a given
        ``scale`` or ``offset`` maps samples to ``raw * scale + offset``.
        """
        valid = np.ones(raw.shape, dtype=bool)
        if nodata is not None:
            valid &= raw != np.asarray(nodata, dtype=raw.dtype)
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf results are masked invalid
            temps = raw.astype(np.float64)
            if scale is not None or offset is not None:
                temps = temps * float(scale if scale is not None else 1.0) + float(offset or 0.0)
        return cls.from_array(temps, valid)

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid_mask))

    def valid_temps(self) -> np.ndarray:
        return self.temps[self.valid_mask]


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
    """Compute min/max/mean/std and threshold coverage over valid pixels."""
    vals = raster.valid_temps()
    if vals.size == 0:
        raise EmptyRasterError("empty raster: no valid pixels")
    return RadiometricSummary(
        min_c=float(vals.min()),
        max_c=float(vals.max()),
        mean_c=float(vals.mean()),
        std_c=float(vals.std(ddof=0)),
        pct_above_200=100.0 * np.count_nonzero(vals >= 200.0) / vals.size,
        pct_above_400=100.0 * np.count_nonzero(vals >= 400.0) / vals.size,
    )
