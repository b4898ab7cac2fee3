"""Thermal hotspot extraction: thresholding, connected components, filters.

A hotspot is a maximal 8-connected region of pixels at or above the activity
threshold (200 C by default) whose ground-projected equivalent radius and
pixel count both clear the validity minimums. Pixel counts convert to ground
area through the field-of-view based ground sampling distance.

Components come from one run-labeling pass over the whole mask (``_label``);
sizes, centroids, peaks and the filters are then computed for all components
at once, and a ``Hotspot`` is built only for each one kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .geodesy import DEFAULT_FOV_DIAG_DEG
from .questions import choices
from .raster import ThermalRaster
from .records import Record

REGION_NO_HOTSPOTS = choices("LD1")[-1]
REGION_CENTER = "Center"


@dataclass(frozen=True)
class HotspotParams:
    """Detection thresholds. Defaults follow the production labeling setup."""

    temp_threshold_c: float = 200.0
    r_min_m: float = 0.75
    n_min_px: int = 5
    fov_diag_deg: float = DEFAULT_FOV_DIAG_DEG

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be strictly positive")


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


def hot_mask(raster: ThermalRaster, threshold: float) -> np.ndarray:
    """Binary mask of valid pixels with temperature >= threshold (inclusive)."""
    return raster.valid_mask & (raster.temps >= threshold)


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a 2-D boolean mask, in numpy calls only.

    Returns the component id of each foreground pixel, in ``np.flatnonzero``
    order, and the number of components. Ids follow the first-encounter
    row-major scan.

    Rows are cut into runs of consecutive foreground pixels. A run touches
    a run of the previous row when their column spans, each widened by one
    for the diagonal, overlap; on row-offset keys ``y * (W + 1) + x`` the
    touching runs form one index range that two searchsorted calls find.
    ``components`` merges the touching runs, so each component's id follows
    its first run in scan order.
    """
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    ys, x0 = np.nonzero(edges == 1)  # run covers columns [x0, x1) of row ys
    x1 = np.nonzero(edges == -1)[1]
    row = ys * (width + 1)
    prev = row - (width + 1)
    # Runs lo[i]:hi[i] of the previous row end at or after x0 and start at or before x1.
    lo = np.searchsorted(row + x1, prev + x0, side="left")
    hi = np.searchsorted(row + x0, prev + x1, side="right")
    touches = hi - lo
    # One edge (a, b) per touching pair: run a and previous-row run b.
    a = np.repeat(np.arange(len(x0)), touches)
    b = np.arange(len(a)) - np.repeat(np.cumsum(touches) - touches - lo, touches)
    run_comp, n = components(len(x0), a, b)
    return np.repeat(run_comp, x1 - x0), n


def components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Components of the undirected graph on nodes 0..n-1 with edges (a[i], b[i]).

    Returns each node's component id, numbered in the order of each
    component's smallest node, and the number of components. Edges merge by
    hooking the larger root under the smaller, with full path compression
    after each round, so every component's root is its smallest node.
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
    roots, ids = np.unique(parent, return_inverse=True)
    return ids, len(roots)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """Partition mask pixels into maximal 8-connected components.

    Returns one (N_i, 2) array of (y, x) pixel coordinates per component, in
    row-major order within each component. Component order (and therefore the
    component id, its list index at call sites that track rejects) follows the
    first-encounter row-major scan.

    Implemented as run labeling: rows are cut into runs of consecutive
    foreground pixels, and runs touching (with at most a one-column diagonal
    gap, for 8-connectivity) a run in the previous row merge into the same
    component.
    """
    mask = np.asarray(mask, dtype=bool)
    comp, n = _label(mask)
    if n == 0:
        return []
    pixels = np.flatnonzero(mask)[np.argsort(comp, kind="stable")]
    coords = np.stack(np.divmod(pixels, mask.shape[1]), axis=1)
    return np.split(coords, np.cumsum(np.bincount(comp))[:-1])


def gsd(agl_m: float, fov_diag_deg: float, width_px: int) -> float:
    """Ground sampling distance in meters/pixel: 2 * H * tan(theta/2) / W.

    ``theta`` is the thermal lens diagonal field of view applied across the
    image width, matching the production labeling formula as stated.
    """
    if not math.isfinite(agl_m) or agl_m <= 0:
        raise ValueError(f"altitude must be positive and finite, got {agl_m}")
    if width_px < 1:
        raise ValueError("image width must be >= 1 px")
    return 2.0 * agl_m * math.tan(math.radians(fov_diag_deg) / 2.0) / width_px


def extract_hotspots(
    raster: ThermalRaster,
    agl_m: float,
    params: HotspotParams | None = None,
) -> list[Hotspot]:
    """Extract valid hotspots: components passing both the radius and pixel
    count filters, with per-hotspot geometry and peak temperature."""
    params = params or HotspotParams()
    g = gsd(agl_m, params.fov_diag_deg, raster.width)
    mask = hot_mask(raster, params.temp_threshold_c)
    comp, n_comp = _label(mask)
    pixels = np.flatnonzero(mask)
    ys, xs = np.divmod(pixels, raster.width)
    temps = raster.temps.ravel()[pixels]

    counts = np.bincount(comp, minlength=n_comp)
    area = counts * g * g
    radius = np.sqrt(area / math.pi)
    kept = np.flatnonzero((radius >= params.r_min_m) & (counts >= params.n_min_px))
    # Integer coordinate sums are exact in float64, so sum / count equals the mean.
    cx = np.bincount(comp, weights=xs, minlength=n_comp) / counts
    cy = np.bincount(comp, weights=ys, minlength=n_comp) / counts
    # Stable sort of the kept pixels: within a component the first row-major pixel wins peak ties.
    sel = np.flatnonzero(np.isin(comp, kept))
    p = sel[np.lexsort((-temps[sel], comp[sel]))][np.cumsum(counts[kept]) - counts[kept]]
    columns = (kept, counts[kept], cx[kept], cy[kept], area[kept], radius[kept], temps[p], xs[p], ys[p])
    return [
        Hotspot(id=k, pixel_count=n, centroid_px=(x, y), centroid_m=(x * g, y * g),
                area_m2=a, radius_m=r, peak_temp_c=t, peak_px=(px, py))
        for k, n, x, y, a, r, t, px, py in zip(*(c.tolist() for c in columns))
    ]


def hottest_location(raster: ThermalRaster, hotspots: list[Hotspot], params: HotspotParams | None = None) -> str:
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
    best = max(hotspots, key=lambda h: (h.peak_temp_c, -h.peak_px[1], -h.peak_px[0]))
    x, y = best.peak_px
    return locate_pixel(x, y, raster.width, raster.height)


def locate_pixel(x: int, y: int, width: int, height: int) -> str:
    """Classify a pixel into Center or a quadrant region label."""
    if width / 3.0 <= x < 2.0 * width / 3.0 and height / 3.0 <= y < 2.0 * height / 3.0:
        return REGION_CENTER
    vert = "Top" if y < height / 2.0 else "Bottom"
    horiz = "left" if x < width / 2.0 else "right"
    return f"{vert}-{horiz}"
