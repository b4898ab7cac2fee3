"""Thermal hotspot extraction: thresholding, connected components, filters.

A hotspot is a maximal 8-connected region of pixels at or above the activity
threshold (200 C by default) whose ground-projected equivalent radius and
pixel count both clear the validity minimums. Pixel counts convert to ground
area through the field-of-view based ground sampling distance.

Components come from one run-labeling pass over the whole mask
(``_label_runs``), their ids from a running count of the roots, with no sort.
Extraction thresholds the frame straight into that pass's zero-padded buffer
and takes each hot pixel's index from its run, so the mask is neither built
apart nor scanned twice. Sizes, centroids, peaks and the filters are then
computed for all components at once. A hotspot's peak is its hottest pixel,
the first in row-major order among ties: a scatter maximum over the kept
components' pixels gives each peak temperature, and a scatter minimum of the
flat index over the pixels that reach it gives the pixel, so the cost
follows the kept pixels, with no sort.
The kept components form a ``HotspotTable`` of those arrays, with no
per-hotspot step; a ``Hotspot`` is one row of it, built only when a caller
indexes the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geodesy import DEFAULT_FOV_DIAG_DEG
from .questions import choices
from .raster import ThermalRaster
from .records import Record, Table

# The four quadrants by index 2 * bottom + right, then "Center", then "No hotspots".
_REGIONS = choices("LD1")
REGION_NO_HOTSPOTS = _REGIONS[-1]


@dataclass(frozen=True)
class HotspotParams:
    """Detection thresholds. Defaults follow the production labeling setup."""

    temp_threshold_c: float = 200.0
    r_min_m: float = 0.75
    n_min_px: int = 5
    fov_diag_deg: float = DEFAULT_FOV_DIAG_DEG

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN fails too
                raise ValueError(f"{f.name} must be strictly positive")
        if not self.fov_diag_deg < 180.0:
            raise ValueError(f"diagonal FOV {self.fov_diag_deg} outside (0, 180)")


@dataclass(frozen=True)
class Hotspot(Record):
    """One valid thermally active connected component.

    ``id`` is the component index in first-encounter row-major order over the
    hot mask (rejected components keep their slots, so ids may have gaps).
    Centroids are unweighted pixel-coordinate means; ``centroid_m`` is the
    ground projection at the frame's GSD.
    """

    id: int
    pixel_count: int
    centroid_px: tuple[float, float]
    centroid_m: tuple[float, float]
    area_m2: float
    radius_m: float
    peak_temp_c: float
    peak_px: tuple[int, int]

    def __post_init__(self) -> None:
        if self.pixel_count < 1:
            raise ValueError("hotspot must contain at least one pixel")
        if self.area_m2 <= 0 or self.radius_m <= 0:
            raise ValueError("hotspot area and radius must be positive")
        # r * r, not r**2: a float product overflows to inf, where ** raises OverflowError.
        if abs(self.radius_m * self.radius_m * math.pi - self.area_m2) > 1e-9 * self.area_m2:
            raise ValueError("radius inconsistent with area (r^2 * pi != A)")


@dataclass(frozen=True, eq=False)
class HotspotTable(Table):
    """The valid hotspots of a frame, in id order, as a ``records.Table`` of ``Hotspot`` rows.

    The pair fields are (n, 2) columns of (x, y). ``Hotspot``'s invariants are
    checked over the columns with the same float operations, so a table
    raises exactly when one of its rows would.
    """

    row = Hotspot

    id: np.ndarray
    pixel_count: np.ndarray
    centroid_px: np.ndarray
    centroid_m: np.ndarray
    area_m2: np.ndarray
    radius_m: np.ndarray
    peak_temp_c: np.ndarray
    peak_px: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        area, radius = self.area_m2, self.radius_m
        if (self.pixel_count < 1).any():
            raise ValueError("hotspot must contain at least one pixel")
        if (area <= 0).any() or (radius <= 0).any():
            raise ValueError("hotspot area and radius must be positive")
        # Silent overflow and NaN, as the Python float operations in ``Hotspot`` are.
        with np.errstate(over="ignore", invalid="ignore"):
            if (abs(radius * radius * math.pi - area) > 1e-9 * area).any():
                raise ValueError("radius inconsistent with area (r^2 * pi != A)")


def hot_mask(raster: ThermalRaster, threshold: float) -> np.ndarray:
    """Binary mask of valid pixels with temperature >= threshold (inclusive)."""
    return raster.valid_mask & (raster.temps >= threshold)


def _hot_components(raster: ThermalRaster, threshold: float) -> tuple[np.ndarray, np.ndarray, int]:
    """``_label_runs`` of ``hot_mask(raster, threshold)``, thresholded straight into
    its padded buffer, which is freed before the caller makes its per-pixel arrays."""
    padded = np.zeros((raster.height, raster.width + 2), dtype=np.int8)
    hot = padded[:, 1:-1]
    np.greater_equal(raster.temps, threshold, out=hot)
    hot &= raster.valid_mask
    return _label_runs(padded)


def _label_runs(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """8-connected labeling of a 0/1 int8 mask padded with a zero column on
    each side: the flat index of each foreground pixel in the unpadded mask,
    in ``np.flatnonzero`` order, its component id, and the number of
    components. Ids follow the first-encounter row-major scan.

    Rows are cut into runs of consecutive foreground pixels. A run touches
    a run of the previous row when their column spans, each widened by one
    for the diagonal, overlap; on row-offset keys ``y * (W + 1) + x`` the
    touching runs form one index range that two searchsorted calls find.
    ``components`` merges the touching runs, so each component's id follows
    its first run in scan order. The pixels come from the runs' keys, in
    row-major order, with no second scan of the mask.
    """
    width = padded.shape[1] - 2
    # Each padded row begins and ends at 0, so in flat order the nonzero
    # differences alternate: a run's start, then its end. A run covers the keys
    # [start, end) of its row.
    flips = np.flatnonzero(np.diff(padded, axis=1))
    start, end = flips[0::2], flips[1::2]
    # Runs lo[i]:hi[i] of the previous row end at or after start and start at or before end.
    lo = np.searchsorted(end, start - (width + 1), side="left")
    hi = np.searchsorted(start, end - (width + 1), side="right")
    # One edge (a, b) per touching pair: run a and previous-row run b.
    a, b = _in_ranges(lo[:, None], hi[:, None])
    run_comp, n = components(len(start), a, b)
    run, key = _in_ranges(start[:, None], end[:, None])
    return key - key // (width + 1), run_comp[run], n


def _in_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row r, position p) for every p in ``lo[r, k]:hi[r, k]``, over all rows and columns."""
    counts = (hi - lo).ravel()
    rows = np.repeat(np.arange(len(lo)), (hi - lo).sum(axis=1))
    # The k-th position overall sits k - (first k of its range) past its range's lo.
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - lo.ravel(), counts)


def components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Components of the undirected graph on nodes 0..n-1 with edges (a[i], b[i]).

    Returns each node's component id, numbered by a running count of the
    roots (no sort), and the number of components. Edges merge by hooking the
    larger root under the smaller, with full path compression after each
    round, so every root is its component's smallest node and ids follow it.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1)[parent], np.count_nonzero(roots)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """Partition mask pixels into maximal 8-connected components.

    Returns one (N_i, 2) array of (y, x) pixel coordinates per component, in
    row-major order within each component. Component order (and therefore the
    component id, its list index at call sites that track rejects) follows the
    first-encounter row-major scan: ``_label_runs``' ids.
    """
    height, width = np.shape(mask)
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = np.asarray(mask, dtype=bool)
    pixels, comp, n = _label_runs(padded)
    if n == 0:
        return []
    coords = np.stack(np.divmod(pixels[np.argsort(comp, kind="stable")], width), axis=1)
    return np.split(coords, np.cumsum(np.bincount(comp))[:-1])


def gsd(agl_m: float, fov_diag_deg: float, width_px: int) -> float:
    """Ground sampling distance in meters/pixel: 2 * H * tan(theta/2) / W.

    ``theta`` is the thermal lens diagonal field of view applied across the
    image width, matching the production labeling formula as stated.
    """
    if not math.isfinite(agl_m) or agl_m <= 0:
        raise ValueError(f"altitude must be positive and finite, got {agl_m}")
    if not 0.0 < fov_diag_deg < 180.0:
        raise ValueError(f"diagonal FOV {fov_diag_deg} outside (0, 180)")
    if width_px < 1:
        raise ValueError("image width must be >= 1 px")
    return 2.0 * agl_m * math.tan(math.radians(fov_diag_deg) / 2.0) / width_px


def extract_hotspots(
    raster: ThermalRaster,
    agl_m: float,
    params: HotspotParams | None = None,
) -> HotspotTable:
    """Extract valid hotspots: components passing both the radius and pixel
    count filters, with per-hotspot geometry and peak temperature."""
    params = params or HotspotParams()
    g = gsd(agl_m, params.fov_diag_deg, raster.width)
    pixels, comp, n_comp = _hot_components(raster, params.temp_threshold_c)
    ys, xs = np.divmod(pixels, raster.width)
    temps = raster.temps.ravel()[pixels]

    counts = np.bincount(comp, minlength=n_comp)
    area = counts * g * g
    radius = np.sqrt(area / math.pi)
    kept = np.flatnonzero((radius >= params.r_min_m) & (counts >= params.n_min_px))
    # Integer coordinate sums are exact in float64, so sum / count equals the mean.
    cx = np.bincount(comp, weights=xs, minlength=n_comp) / counts
    cy = np.bincount(comp, weights=ys, minlength=n_comp) / counts
    # Each kept component's highest temperature, then its first row-major pixel at it.
    keep = np.zeros(n_comp, dtype=bool)
    keep[kept] = True
    sel = np.flatnonzero(keep[comp])
    sel_comp, sel_temps = comp[sel], temps[sel]
    peak = np.full(n_comp, -np.inf)
    np.maximum.at(peak, sel_comp, sel_temps)
    top = sel_temps == peak[sel_comp]
    first = np.full(n_comp, len(pixels))
    np.minimum.at(first, sel_comp[top], sel[top])
    p = first[kept]
    centroid = np.stack((cx[kept], cy[kept]), axis=1)
    return HotspotTable(
        id=kept, pixel_count=counts[kept], area_m2=area[kept], radius_m=radius[kept],
        centroid_px=centroid, centroid_m=centroid * g,
        peak_temp_c=temps[p], peak_px=np.stack((xs[p], ys[p]), axis=1),
    )


def hottest_location(raster: ThermalRaster, hotspots: HotspotTable, params: HotspotParams | None = None) -> str:
    """Region label of the hottest pixel within the valid hotspot mask.

    Returns "No hotspots" when no valid hotspot exists. The frame's middle
    third in both axes is "Center"; everything else falls to the quadrant by
    image midlines, with midline pixels owned by the right/bottom side. Peak
    ties resolve to the first pixel in row-major order. Each hotspot's
    ``peak_px`` is already the first row-major argmax of its component, so
    the hottest pixel is the latest peak by (temperature, -y, -x). ``params``
    is unused and accepted for callers that pass it.
    """
    if not hotspots:
        return REGION_NO_HOTSPOTS
    peak = hotspots.peak_temp_c
    x, y = min(hotspots.peak_px[peak == peak.max()].tolist(), key=lambda xy: (xy[1], xy[0]))
    return locate_pixel(x, y, raster.width, raster.height)


def locate_pixel(x: int, y: int, width: int, height: int) -> str:
    """Classify a pixel into Center or a quadrant region label."""
    if width / 3.0 <= x < 2.0 * width / 3.0 and height / 3.0 <= y < 2.0 * height / 3.0:
        return _REGIONS[4]
    return _REGIONS[2 * (y >= height / 2.0) + (x >= width / 2.0)]
