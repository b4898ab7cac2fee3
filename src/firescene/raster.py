"""Radiometric thermal rasters: containers, fixture IO, and summary statistics.

A thermal raster is a single-band grid where every pixel holds an absolute
temperature in degrees Celsius. Pixels outside the physically plausible range
or equal to a declared no-data value are flagged invalid, never clamped.
Both file readers, ``load_raw_raster`` and ``tiff.load_thermal_tiff``, decode
their samples through ``ThermalRaster.from_samples``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Plausible radiometric range for wildfire scenes; anything outside is sensor
# garbage and gets masked out.
TEMP_MIN_C = -100.0
TEMP_MAX_C = 2000.0

_RAW_DTYPES = {
    "float32": "f4",
    "float64": "f8",
    "uint16": "u2",
    "int16": "i2",
}
_ENDIAN_PREFIX = {"little": "<", "big": ">"}


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
class RadiometricSummary:
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

    def as_dict(self) -> dict[str, float]:
        return {
            "min_c": self.min_c,
            "max_c": self.max_c,
            "mean_c": self.mean_c,
            "std_c": self.std_c,
            "pct_above_200": self.pct_above_200,
            "pct_above_400": self.pct_above_400,
        }


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


def load_raw_raster(header: dict | str | Path, data: str | Path | None = None) -> ThermalRaster:
    """Load a raster from the raw fixture format (JSON sidecar + flat binary).

    The sidecar declares ``width``, ``height``, ``dtype`` (float32/float64/
    uint16/int16), ``endian`` (little/big) and optionally ``nodata``,
    ``scale``/``offset`` (applied as ``value * scale + offset``) and ``data``
    (blob filename relative to the sidecar). ``data`` as an argument overrides
    the sidecar entry.

    A malformed sidecar or blob raises RasterFormatError; a missing file
    raises OSError.
    """
    base_dir = Path(".")
    if not isinstance(header, dict):
        sidecar_path = Path(header)
        base_dir = sidecar_path.parent
        try:
            header = json.loads(sidecar_path.read_text())
        except ValueError as exc:  # invalid JSON or undecodable text
            raise RasterFormatError(f"unreadable sidecar {sidecar_path}: {exc}") from exc
        if not isinstance(header, dict):
            raise RasterFormatError(f"sidecar {sidecar_path} is not a JSON object")

    try:
        width = int(header["width"])
        height = int(header["height"])
        dtype_name = str(header["dtype"])
        endian = str(header.get("endian", "little"))
        if dtype_name not in _RAW_DTYPES:
            raise RasterFormatError(f"unknown element type {dtype_name!r}")
        if endian not in _ENDIAN_PREFIX:
            raise RasterFormatError(f"unknown endianness {endian!r}")
        dtype = np.dtype(_ENDIAN_PREFIX[endian] + _RAW_DTYPES[dtype_name])
        nodata = header.get("nodata")
        if nodata is not None:
            nodata = np.asarray(nodata, dtype=dtype)
            if nodata.ndim:
                raise RasterFormatError(f"nodata {header['nodata']!r} is not a number")
        scale = header.get("scale")
        offset = header.get("offset")
        if scale is not None or offset is not None:
            scale, offset = float(scale if scale is not None else 1.0), float(offset or 0.0)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise RasterFormatError(f"malformed sidecar field: {exc}") from exc
    if width < 1 or height < 1:
        raise RasterFormatError(f"raster dimensions must be >= 1, got {width}x{height}")
    if data is None:
        if "data" not in header:
            raise RasterFormatError("sidecar declares no data file and none was supplied")
        data = base_dir / str(header["data"])

    blob = Path(data).read_bytes()
    expected = width * height * dtype.itemsize
    if len(blob) != expected:
        raise RasterFormatError(
            f"length mismatch: expected {expected} bytes for "
            f"{width}x{height} {dtype_name}, got {len(blob)}"
        )

    raw = np.frombuffer(blob, dtype=dtype).reshape(height, width)
    return ThermalRaster.from_samples(raw, nodata, scale, offset)


def write_raw_raster(
    raster: ThermalRaster,
    sidecar: str | Path,
    *,
    dtype: str = "float64",
    endian: str = "little",
    nodata: float = -9999.0,
) -> tuple[Path, Path]:
    """Write a raster as a raw fixture (sidecar + blob next to it).

    Invalid pixels are written as ``nodata``; with the default float64 dtype,
    loading the result back reproduces every valid pixel bit-for-bit.
    """
    if dtype not in _RAW_DTYPES:
        raise RasterFormatError(f"unknown element type {dtype!r}")
    if endian not in _ENDIAN_PREFIX:
        raise RasterFormatError(f"unknown endianness {endian!r}")
    sidecar = Path(sidecar)
    data_path = sidecar.with_suffix(".bin")
    np_dtype = np.dtype(_ENDIAN_PREFIX[endian] + _RAW_DTYPES[dtype])

    out = raster.temps.copy()
    out[~raster.valid_mask] = nodata
    data_path.write_bytes(np.ascontiguousarray(out.astype(np_dtype)).tobytes())
    sidecar.write_text(
        json.dumps(
            {
                "width": raster.width,
                "height": raster.height,
                "dtype": dtype,
                "endian": endian,
                "nodata": nodata,
                "data": data_path.name,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return sidecar, data_path
