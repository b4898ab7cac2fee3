"""UAV height above ground level from GPS metadata, a geoid grid, and a DEM.

The chain is: EXIF GPS gives the ellipsoidal altitude h, a geoid undulation
grid converts it to orthometric height (h - N), and an SRTM elevation tile
supplies the local ground elevation, so AGL = (h - N) - ground. AGL is then
binned into the flight-altitude answer categories.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .questions import bin_option
from .raster import RasterFormatError
from .tiff import INTEGER_TYPES, TYPE_ASCII, TYPE_RATIONAL, IfdEntry, read_header, read_ifd

# DJI M30T thermal camera defaults used when EXIF carries no overrides.
DEFAULT_FOV_DIAG_DEG = 61.0

SRTM_VOID = -32768


class GeodesyError(Exception):
    """Base error for geodesy lookups and metadata parsing."""


class OutsideCoverageError(GeodesyError):
    """Query point not covered by the loaded grid or tile set."""


class DemVoidError(GeodesyError):
    """An SRTM void cell participates in the interpolation."""


class ExifError(GeodesyError):
    """JPEG lacks usable GPS metadata or carries malformed values."""


@dataclass(frozen=True)
class FrameMeta:
    """Per-frame UAV metadata driving geodesy and ground sampling distance."""

    lat: float
    lon: float
    alt_ellipsoidal_m: float
    fov_diag_deg: float = DEFAULT_FOV_DIAG_DEG

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon < 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180)")
        if not 0.0 < self.fov_diag_deg < 180.0:
            raise ValueError(f"diagonal FOV {self.fov_diag_deg} outside (0, 180)")


def _bilinear(q00: float, q10: float, q01: float, q11: float, fx: float, fy: float) -> float:
    """Interpolate within a unit cell; q``xy`` with x east, y north."""
    bottom = q00 * (1.0 - fx) + q10 * fx
    top = q01 * (1.0 - fx) + q11 * fx
    return bottom * (1.0 - fy) + top * fy


@dataclass(frozen=True)
class GeoidGrid:
    """Regular lat/lon grid of geoid undulations (meters above the ellipsoid).

    Row 0 is the southernmost row and column 0 the westernmost; rows step
    north and columns east by ``spacing_deg``.
    """

    origin_lat: float
    origin_lon: float
    spacing_deg: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.spacing_deg < math.inf:  # NaN fails too
            raise ValueError("grid spacing must be positive and finite")
        if not (math.isfinite(self.origin_lat) and math.isfinite(self.origin_lon)):
            raise ValueError("grid origin must be finite")
        if self.values.ndim != 2 or min(self.values.shape) < 2:
            raise ValueError("geoid grid needs at least 2x2 nodes")
        if not np.isfinite(self.values).all():
            raise ValueError("geoid undulations must be finite")
        self.values.setflags(write=False)

    @classmethod
    def from_json(cls, path: str | Path) -> GeoidGrid:
        """Load a grid from JSON; values inline or in a sidecar binary file.

        A malformed grid raises GeodesyError; a missing file raises OSError.
        """
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict):
                raise GeodesyError(f"{path.name}: geoid grid is not a JSON object")
            nrows, ncols = int(doc["nrows"]), int(doc["ncols"])
            if nrows < 1 or ncols < 1:  # reshape would infer a -1 dimension
                raise GeodesyError(f"{path.name}: geoid grid shape {nrows}x{ncols}")
            if "values" in doc:
                values = np.asarray(doc["values"], dtype=np.float64).reshape(nrows, ncols)
            else:
                endian = {"little": "<", "big": ">"}.get(doc.get("endian", "little"))
                if endian is None:
                    raise GeodesyError(f"{path.name}: geoid grid endian {doc['endian']!r}")
                blob = (path.parent / doc["data"]).read_bytes()
                values = np.frombuffer(blob, dtype=endian + "f4").astype(np.float64)
                values = values.reshape(nrows, ncols)
            return cls(
                origin_lat=float(doc["origin_lat"]),
                origin_lon=float(doc["origin_lon"]),
                spacing_deg=float(doc["spacing_deg"]),
                values=values,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GeodesyError(f"{path.name}: malformed geoid grid: {exc}") from exc

    def _fractional_index(self, lat: float, lon: float) -> tuple[int, int, float, float]:
        nrows, ncols = self.values.shape
        fy = (lat - self.origin_lat) / self.spacing_deg
        fx = (lon - self.origin_lon) / self.spacing_deg
        if fy < 0 or fy > nrows - 1 or fx < 0 or fx > ncols - 1:
            raise OutsideCoverageError(
                f"point ({lat}, {lon}) outside geoid grid coverage"
            )
        iy, ix = min(int(fy), nrows - 2), min(int(fx), ncols - 2)
        return iy, ix, fx - ix, fy - iy


def geoid_undulation(grid: GeoidGrid, lat: float, lon: float) -> float:
    """Bilinear geoid undulation N at (lat, lon), in meters."""
    iy, ix, fx, fy = grid._fractional_index(lat, lon)
    v = grid.values
    return _bilinear(v[iy, ix], v[iy, ix + 1], v[iy + 1, ix], v[iy + 1, ix + 1], fx, fy)


_HGT_NAME = re.compile(r"^([NS])(\d{2})([EW])(\d{3})$")


@dataclass(frozen=True)
class DemTile:
    """One SRTM .hgt tile: a square grid of orthometric elevations.

    ``anchor`` is the integer-degree south-west corner encoded in the file
    name (e.g. N34W119). Rows run north to south per the SRTM convention.
    """

    anchor_lat: int
    anchor_lon: int
    elevations: np.ndarray  # int16, (n, n) with n in {1201, 3601}

    def __post_init__(self) -> None:
        n = self.elevations.shape[0]
        if self.elevations.shape != (n, n) or n not in (1201, 3601):
            raise ValueError(f"SRTM tile must be 1201^2 or 3601^2, got {self.elevations.shape}")
        self.elevations.setflags(write=False)

    @classmethod
    def from_hgt(cls, path: str | Path) -> DemTile:
        path = Path(path)
        m = _HGT_NAME.match(path.stem)
        if not m:
            raise GeodesyError(f"cannot parse tile anchor from file name {path.name!r}")
        lat = int(m.group(2)) * (1 if m.group(1) == "N" else -1)
        lon = int(m.group(4)) * (1 if m.group(3) == "E" else -1)
        blob = path.read_bytes()
        n_cells = len(blob) // 2
        side = int(math.isqrt(n_cells))
        if side * side * 2 != len(blob) or side not in (1201, 3601):
            raise GeodesyError(f"{path.name}: unexpected size {len(blob)} bytes")
        grid = np.frombuffer(blob, dtype=">i2").reshape(side, side)
        return cls(anchor_lat=lat, anchor_lon=lon, elevations=grid)


def _tile_name(key: tuple[int, int]) -> str:
    ns = "N" if key[0] >= 0 else "S"
    ew = "E" if key[1] >= 0 else "W"
    return f"{ns}{abs(key[0]):02d}{ew}{abs(key[1]):03d}.hgt"


class DemTileSet:
    """Lazy directory-backed collection of SRTM tiles keyed by anchor; misses are not cached."""

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._tiles: dict[tuple[int, int], DemTile] = {}

    def tile_for(self, lat: float, lon: float) -> DemTile:
        # Tiles share their edge rows/columns, so a query exactly on a tile
        # boundary is also covered by the tile south/west of it.
        klat, klon = math.floor(lat), math.floor(lon)
        lats = (klat, klat - 1) if lat == klat else (klat,)
        lons = (klon, klon - 1) if lon == klon else (klon,)
        for key in ((y, x) for y in lats for x in lons):
            if key not in self._tiles:
                path = self._dir / _tile_name(key)
                if not path.exists():
                    continue
                self._tiles[key] = DemTile.from_hgt(path)
            return self._tiles[key]
        raise OutsideCoverageError(f"missing DEM tile {_tile_name((klat, klon))}")


def dem_elevation(tiles: DemTileSet, lat: float, lon: float) -> float:
    """Bilinear SRTM ground elevation at (lat, lon), in meters.

    Raises DemVoidError when any of the four interpolation nodes is the SRTM
    void marker.
    """
    tile = tiles.tile_for(lat, lon)
    n = tile.elevations.shape[0]
    # Row 0 is the tile's north edge; columns run west to east.
    fx = (lon - tile.anchor_lon) * (n - 1)
    fy = (tile.anchor_lat + 1.0 - lat) * (n - 1)
    fx = min(max(fx, 0.0), n - 1.0)
    fy = min(max(fy, 0.0), n - 1.0)
    ix, iy = min(int(fx), n - 2), min(int(fy), n - 2)
    quad = tile.elevations[iy : iy + 2, ix : ix + 2]
    if (quad == SRTM_VOID).any():
        raise DemVoidError(f"DEM void among interpolation nodes at ({lat}, {lon})")
    # q00 at (iy+1, ix) is the south-west node since rows run north to south.
    return _bilinear(
        float(quad[1, 0]),
        float(quad[1, 1]),
        float(quad[0, 0]),
        float(quad[0, 1]),
        fx - ix,
        (iy + 1) - fy,
    )


def agl(meta: FrameMeta, geoid: GeoidGrid, dem: DemTileSet) -> float:
    """UAV height above ground: (h - N) - ground elevation, in meters.

    May be negative when metadata or terrain data are inconsistent; callers
    should treat negative values as suspect rather than clamping them.
    """
    n = geoid_undulation(geoid, meta.lat, meta.lon)
    ground = dem_elevation(dem, meta.lat, meta.lon)
    return (meta.alt_ellipsoidal_m - n) - ground


@dataclass(frozen=True)
class AltitudeBin:
    """Flight-altitude category plus a flag for physically suspect input."""

    label: str
    suspect: bool = False


def altitude_bin(agl_m: float) -> AltitudeBin:
    """Bin AGL into the FP2 categories, half-open at ``questions.BIN_EDGES["FP2"]``.

    Negative AGL maps to the lowest bin with ``suspect`` set.
    """
    if not math.isfinite(agl_m):
        raise ValueError(f"AGL must be finite, got {agl_m}")
    return AltitudeBin(bin_option("FP2", agl_m), suspect=agl_m < 0)


# --- EXIF GPS extraction ----------------------------------------------------

_GPS_IFD_POINTER = 0x8825
_GPS_LAT_REF, _GPS_LAT = 1, 2
_GPS_LON_REF, _GPS_LON = 3, 4
_GPS_ALT_REF, _GPS_ALT = 5, 6


def _gps_values(gps: dict[int, IfdEntry], tag: int, ftype: int) -> str | list:
    """Values of a GPS tag, which must be present with field type ``ftype``."""
    entry = gps.get(tag)
    if entry is None:
        raise ExifError(f"no GPS metadata (missing GPS tag {tag})")
    if entry.type != ftype:
        raise ExifError(f"GPS tag {tag}: expected field type {ftype}, got {entry.type}")
    return entry.values


def _rationals(gps: dict[int, IfdEntry], tag: int) -> list[float]:
    """A GPS tag's rationals as floats; at least one, none with a zero denominator."""
    pairs = _gps_values(gps, tag, TYPE_RATIONAL)
    if not pairs:
        raise ExifError(f"GPS tag {tag} holds no values")
    if any(den == 0 for _, den in pairs):
        raise ExifError(f"zero-denominator rational in GPS tag {tag}")
    return [num / den for num, den in pairs]


def _dms_to_degrees(dms: list[float], ref: str) -> float:
    if len(dms) != 3:
        raise ExifError(f"expected 3 DMS rationals, got {len(dms)}")
    deg = dms[0] + dms[1] / 60.0 + dms[2] / 3600.0
    return -deg if ref in ("S", "W") else deg


def parse_exif_gps(jpeg: str | Path, *, fov_diag_deg: float = DEFAULT_FOV_DIAG_DEG) -> FrameMeta:
    """Extract GPS position and altitude from a JPEG's Exif APP1 segment.

    Altitude sign follows GPSAltitudeRef (1 = below the reference surface).
    Camera FOV comes from the keyword default since the GPS IFD does not
    carry it. Raises only ExifError for content it cannot use: no JPEG, no
    Exif or GPS block, a malformed or truncated IFD, a missing or mistyped
    GPS tag, a zero denominator, or a position FrameMeta rejects.
    """
    buf = Path(jpeg).read_bytes()
    if buf[:2] != b"\xff\xd8":
        raise ExifError("not a JPEG (missing SOI marker)")

    pos = 2
    tiff_base = None
    while pos + 4 <= len(buf):
        if buf[pos] != 0xFF:
            raise ExifError(f"bad JPEG marker at byte {pos}")
        marker = buf[pos + 1]
        if marker in (0xD8, 0xD9) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        if marker == 0xDA:  # start of scan, no Exif beyond this point
            break
        (seg_len,) = struct.unpack_from(">H", buf, pos + 2)
        if marker == 0xE1 and buf[pos + 4 : pos + 10] == b"Exif\x00\x00":
            tiff_base = pos + 10
            break
        pos += 2 + seg_len
    if tiff_base is None:
        raise ExifError("no APP1 Exif segment found")

    try:
        order, ifd0_off = read_header(buf, tiff_base)
        ifd0 = read_ifd(buf, order, tiff_base, ifd0_off)
        gps_ptr = ifd0.get(_GPS_IFD_POINTER)
        if gps_ptr is None or not gps_ptr.values:
            raise ExifError("no GPS metadata (missing GPS IFD)")
        if gps_ptr.type not in INTEGER_TYPES:
            raise ExifError(f"GPS IFD pointer has non-integer field type {gps_ptr.type}")
        gps = read_ifd(buf, order, tiff_base, gps_ptr.values[0])
    except RasterFormatError as exc:
        raise ExifError(f"malformed Exif block: {exc}") from exc

    lat = _dms_to_degrees(_rationals(gps, _GPS_LAT), _gps_values(gps, _GPS_LAT_REF, TYPE_ASCII))
    lon = _dms_to_degrees(_rationals(gps, _GPS_LON), _gps_values(gps, _GPS_LON_REF, TYPE_ASCII))
    alt = _rationals(gps, _GPS_ALT)[0]
    if _GPS_ALT_REF in gps and gps[_GPS_ALT_REF].values[:1] == [1]:
        alt = -alt
    try:
        return FrameMeta(lat=lat, lon=lon, alt_ellipsoidal_m=alt, fov_diag_deg=fov_diag_deg)
    except ValueError as exc:
        raise ExifError(f"unusable GPS metadata: {exc}") from exc
