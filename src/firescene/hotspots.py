"""Thermal hotspot extraction: thresholding, connected components, filters.

A hotspot is a maximal 8-connected region of pixels at or above the activity
threshold (200 C by default) whose ground-projected equivalent radius and
pixel count both clear the validity minimums. Pixel counts convert to ground
area through the field-of-view based ground sampling distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import ThermalRaster

REGION_NO_HOTSPOTS = "No hotspots"
REGION_CENTER = "Center"


@dataclass(frozen=True)
class HotspotParams:
    """Detection thresholds. Defaults follow the production labeling setup."""

    temp_threshold_c: float = 200.0
    r_min_m: float = 0.75
    n_min_px: int = 5
    fov_diag_deg: float = 61.0

    def __post_init__(self) -> None:
        for name in ("temp_threshold_c", "r_min_m", "n_min_px", "fov_diag_deg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class Hotspot:
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
        if abs(self.radius_m**2 * math.pi - self.area_m2) > 1e-9 * self.area_m2:
            raise ValueError("radius inconsistent with area (r^2 * pi != A)")

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "pixel_count": self.pixel_count,
            "centroid_px": list(self.centroid_px),
            "centroid_m": list(self.centroid_m),
            "area_m2": self.area_m2,
            "radius_m": self.radius_m,
            "peak_temp_c": self.peak_temp_c,
            "peak_px": list(self.peak_px),
        }

    @classmethod
    def from_dict(cls, d: dict) -> Hotspot:
        return cls(
            id=d["id"],
            pixel_count=d["pixel_count"],
            centroid_px=tuple(d["centroid_px"]),
            centroid_m=tuple(d["centroid_m"]),
            area_m2=d["area_m2"],
            radius_m=d["radius_m"],
            peak_temp_c=d["peak_temp_c"],
            peak_px=tuple(d["peak_px"]),
        )


def hot_mask(raster: ThermalRaster, threshold: float) -> np.ndarray:
    """Binary mask of valid pixels with temperature >= threshold (inclusive)."""
    return raster.valid_mask & (raster.temps >= threshold)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """Partition mask pixels into maximal 8-connected components.

    Returns one (N_i, 2) array of (y, x) pixel coordinates per component, in
    row-major order within each component. Component order (and therefore the
    component id, its list index at call sites that track rejects) follows the
    first-encounter row-major scan.

    Implemented as run-based two-pass labeling with union-find: rows are cut
    into runs of consecutive foreground pixels; runs touching (with at most a
    one-column diagonal gap, for 8-connectivity) a run in the previous row
    merge into the same component.
    """
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    uf = _UnionFind()
    run_labels: list[list[tuple[int, int, int]]] = []  # per row: (x0, x1, label)

    padded = np.zeros(width + 2, dtype=np.int8)
    prev_runs: list[tuple[int, int, int]] = []
    for y in range(height):
        padded[1:-1] = mask[y]
        d = np.diff(padded)
        starts = np.nonzero(d == 1)[0]
        ends = np.nonzero(d == -1)[0]
        runs = []
        for x0, x1 in zip(starts, ends):  # run covers columns [x0, x1)
            label = uf.make()
            for px0, px1, plabel in prev_runs:
                # 8-connectivity: diagonal contact extends each run by one.
                if x0 < px1 + 1 and px0 < x1 + 1:
                    uf.union(label, plabel)
            runs.append((int(x0), int(x1), label))
        run_labels.append(runs)
        prev_runs = runs

    # Assign component ids in first-encounter row-major order of the roots.
    component_of_root: dict[int, int] = {}
    pixels: list[list[np.ndarray]] = []
    for y, runs in enumerate(run_labels):
        for x0, x1, label in runs:
            root = uf.find(label)
            comp = component_of_root.setdefault(root, len(component_of_root))
            if comp == len(pixels):
                pixels.append([])
            coords = np.empty((x1 - x0, 2), dtype=np.int64)
            coords[:, 0] = y
            coords[:, 1] = np.arange(x0, x1)
            pixels[comp].append(coords)
    return [np.concatenate(chunks, axis=0) for chunks in pixels]


def gsd(agl_m: float, fov_diag_deg: float, width_px: int) -> float:
    """Ground sampling distance in meters/pixel: 2 * H * tan(theta/2) / W.

    ``theta`` is the thermal lens diagonal field of view applied across the
    image width, matching the production labeling formula as stated.
    """
    if agl_m <= 0:
        raise ValueError(f"altitude must be positive, got {agl_m}")
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
    components = connected_components(mask)

    out: list[Hotspot] = []
    for comp_id, coords in enumerate(components):
        n = len(coords)
        area = n * g * g
        radius = math.sqrt(area / math.pi)
        if radius < params.r_min_m or n < params.n_min_px:
            continue
        ys = coords[:, 0].astype(np.float64)
        xs = coords[:, 1].astype(np.float64)
        cx, cy = float(xs.mean()), float(ys.mean())
        temps = raster.temps[coords[:, 0], coords[:, 1]]
        k = int(np.argmax(temps))  # coords are row-major, so ties go to the first pixel
        out.append(
            Hotspot(
                id=comp_id,
                pixel_count=n,
                centroid_px=(cx, cy),
                centroid_m=(cx * g, cy * g),
                area_m2=area,
                radius_m=radius,
                peak_temp_c=float(temps[k]),
                peak_px=(int(coords[k, 1]), int(coords[k, 0])),
            )
        )
    return out


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
