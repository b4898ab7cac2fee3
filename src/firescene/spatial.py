"""Spatial organization of hotspots: clustering, distribution, intensity.

The classifiers read a frame's ``HotspotTable`` columns as they are; the
(n, 2) ``centroid_px`` are clustered by single linkage on ground-projected
distances; the largest-area cluster is the main fire. The frame-level labels
are the spatial distribution (linearity via PCA of centroids, then a
compactness test against the equivalent radius of the combined area) and the
intensity consistency (robust coefficient of variation of per-hotspot peaks).

No classifier builds the n x n matrix of centroid distances. Linkage and
isolation test only the candidate pairs found on a grid of cells a hair wider
than the threshold (fixed-radius near neighbours, Bentley, Stanat & Williams
1977). One routine, ``_pair_distances``, gives every pair's distance as
``hypot((xa - xb) * gsd, (ya - yb) * gsd)`` over pixel centroids, for the
candidate pairs and the extent's all-pairs rows alike, so every decision is
the same float comparison as over all pairs. Clusters are the graph components
(``hotspots.components``) of the pairs within the merge distance;
``hotspots._in_ranges`` expands the candidates' key ranges into pairs. Areas
are summed in index order (``np.bincount``, ``np.cumsum``), one addition at a
time, so no Python version's ``sum`` changes a total. The extent is the
all-pairs maximum, bit for bit, over the centroids one triangle-inequality cut
leaves. The farthest of the extreme centroids in the directions +-x, +-y,
+-(x+y) and +-(y-x) is a real pair at d0; a centroid whose distance to the
bounding-box centre, plus the largest such distance, stays under
d0 * (1 - 1e-9) cannot end the farthest pair, as the margin dwarfs the
rounding. At a non-finite d0, or one below 2^-900 where underflow could
outweigh the margin, every centroid takes part. A ring keeps all its
centroids, so there the extent stays quadratic; elsewhere time and memory grow
with n times the number of hotspots within a threshold of each, not n^2.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .hotspots import HotspotTable, _in_ranges, components
from .questions import choices
from .records import Record


class SpatialDistributionLabel(enum.Enum):
    SCATTERED, CONCENTRATED, LINEAR, NO_ACTIVE_HOTSPOTS = choices("DS1")


class IntensityConsistencyLabel(enum.Enum):
    """DS3's options in order; the analysis JSON spells "Different intensity" as "Clearly different"."""

    SIMILAR = "Similar intensity"
    CLEARLY_DIFFERENT = "Clearly different"
    NO_ACTIVE_HOTSPOTS = "No active hotspots"


class IsolationVerdict(enum.Enum):
    YES, NO, NO_FIRE = choices("PD7")


@dataclass(frozen=True)
class SpatialParams:
    """Distance and similarity thresholds for the frame-level classifiers."""

    d_merge_m: float = 10.0
    isolation_m: float = 30.0
    tau_lin: float = 0.90
    d_lin_m: float = 20.0
    alpha: float = 4.0
    tau_sim: float = 0.10
    delta_t_sim_c: float = 20.0
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0:  # NaN fails too
                raise ValueError(f"{f.name} must be positive")
        if not 0.5 < self.tau_lin <= 1.0:
            raise ValueError("tau_lin must lie in (0.5, 1]")


@dataclass(frozen=True)
class ClusterSet(Record):
    """Partition of hotspot table rows into proximity clusters.

    ``clusters[k]`` holds indices into the hotspot table passed to the
    clustering call, each sorted ascending; clusters are ordered by their
    smallest member. ``main_index`` selects the cluster with the largest
    total ground area (lowest cluster id on ties), or None when empty.
    """

    clusters: tuple[tuple[int, ...], ...]
    main_index: int | None
    total_area_m2: tuple[float, ...]


def _pair_distances(points_px: np.ndarray, i: np.ndarray, j: np.ndarray, gsd: float) -> np.ndarray:
    """Centroid ground distance ``hypot((xi - xj) * gsd, (yi - yj) * gsd)`` of
    each pair of the index arrays ``i`` and ``j``, broadcast against each other.

    Built in place, so at most two float64 arrays of the broadcast shape are
    alive at once. ``(a - b) * gsd`` is exactly ``-((b - a) * gsd)``, so the
    orientation of a pair does not change its distance.
    """
    x, y = points_px.T
    dx = x[i] - x[j]
    dx *= gsd
    dy = y[i] - y[j]
    dy *= gsd
    return np.hypot(dx, dy, out=dx)


def _farthest(points_px: np.ndarray, gsd: float) -> float:
    """Largest centroid ground distance over all pairs, in row chunks of at most 2^18 distances."""
    every = np.arange(len(points_px))
    rows = max(1, (1 << 18) // len(every))
    return max(float(_pair_distances(points_px, every[k : k + rows, None], every, gsd).max()) for k in every[::rows])


# Directions +-x, +-y, +-(x+y) and +-(y-x), as the columns of one projection.
_DIRECTIONS = np.array([[1, 0, 1, -1, -1, 0, -1, 1], [0, 1, 1, 1, 0, -1, -1, -1]], dtype=np.float64)

# Below this lower bound, underflow could outweigh the cut's relative rounding margin.
_TINY = 2.0**-900


def _extent(points_px: np.ndarray, gsd: float) -> float:
    """Largest centroid ground distance over all pairs, bit for bit ``_farthest(points_px, gsd)``.

    The extreme points in the ``_DIRECTIONS`` give ``d0``, the distance of a
    real pair. With ``dc`` each point's distance to the bounding-box centre
    (``_pair_distances``' arithmetic) and ``R`` the largest of them, a point
    with ``dc + R < d0 * (1 - 1e-9)`` lies nearer than ``d0`` to every other
    point (triangle inequality); the margin dwarfs the few ulps of rounding in
    either side, so its computed distances stay strictly below the computed
    ``d0``, and the farthest pair is taken over the points left. A NaN keeps
    its point. If ``d0`` is not finite, or below ``_TINY``, every point takes
    part.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = _farthest(points_px[np.argmax(points_px @ _DIRECTIONS, axis=0)], gsd)
        if not _TINY <= d0 < math.inf:  # NaN fails too
            return _farthest(points_px, gsd)
        centre = (points_px.min(axis=0) + points_px.max(axis=0)) / 2
        dc = np.hypot(*((points_px - centre) * gsd).T)
        return _farthest(points_px[~(dc + dc.max() < d0 * (1.0 - 1e-9))], gsd)


def _cell_keys(points_px: np.ndarray, radius_px: float) -> tuple[np.ndarray, int]:
    """Each point's key on a grid of square cells a hair wider than ``|radius_px|``,
    and the key step between cell rows. (Distances scale by ``|gsd|``, so a
    negative gsd gives the same pairs as its magnitude.)

    Two points within ``radius_px`` of each other sit in the same or adjacent
    cells, and every neighbour of a point's cell has a key >= 0. The
    ``1 + 1e-6`` margin keeps a pair that passes its distance test in
    adjacent cells: the pass can let the pixel offset exceed ``radius_px`` by
    a few ulps (``radius_px`` is itself a rounded quotient, and the test
    rounds), and each point's cell index rounds once more. Cells are also at
    least 2^-20 of the largest coordinate wide, so that rounding stays far
    below the margin and the keys far inside int64.
    """
    min_width = float(np.abs(points_px).max(initial=0.0)) * 2.0**-20
    c = np.floor(points_px / max(abs(radius_px) * (1.0 + 1e-6), min_width)).astype(np.int64)
    c -= c.min(axis=0, initial=0) - 1
    width = int(c[:, 0].max(initial=0)) + 2
    return c[:, 1] * width + c[:, 0], width


def _pairs_within(points_px: np.ndarray, radius_px: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of points that may lie within ``radius_px`` of each other.

    A superset of the pairs that do (see ``_cell_keys``), each unordered pair
    once and no point with itself. Each point pairs with the points after it
    in its own cell and with those in the four adjacent cells that follow
    its cell in key order, which covers its 3 x 3 neighbourhood once; one
    ``searchsorted`` pair over the sorted keys finds all (n, 5) ranges.
    """
    key, width = _cell_keys(points_px, radius_px)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    # Own cell, then cells (+1, 0), (-1, +1), (0, +1) and (+1, +1).
    nbr = ranked[:, None] + np.array([0, 1, width - 1, width, width + 1])
    lo = np.searchsorted(ranked, nbr, side="left")
    hi = np.searchsorted(ranked, nbr, side="right")
    lo[:, 0] = np.arange(1, len(ranked) + 1)  # own cell: only the points after this one
    a, b = _in_ranges(lo, hi)
    return order[a], order[b]


def _pairs_across(
    points_px: np.ndarray, targets_px: np.ndarray, radius_px: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i into ``points_px``, j into ``targets_px``) that may lie
    within ``radius_px``: the targets in the 3 x 3 cells around each point."""
    key, width = _cell_keys(np.concatenate([points_px, targets_px]), radius_px)
    order = np.argsort(key[len(points_px) :], kind="stable")
    ranked = key[len(points_px) :][order]
    nbr = key[: len(points_px), None] + np.array([dy * width + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    a, b = _in_ranges(np.searchsorted(ranked, nbr, side="left"), np.searchsorted(ranked, nbr, side="right"))
    return a, order[b]


def single_linkage_clusters(
    hotspots: HotspotTable, gsd: float, params: SpatialParams | None = None
) -> ClusterSet:
    """Transitive closure of the "centroid distance <= d_merge" relation."""
    params = params or SpatialParams()
    n = len(hotspots)
    if n == 0:
        return ClusterSet(clusters=(), main_index=None, total_area_m2=())

    pts = hotspots.centroid_px
    i, j = _pairs_within(pts, params.d_merge_m / gsd)
    near = _pair_distances(pts, i, j, gsd) <= params.d_merge_m
    ids, _ = components(n, i[near], j[near])
    order = np.argsort(ids, kind="stable")  # stable: each cluster's members stay ascending
    clusters = tuple(tuple(c.tolist()) for c in np.split(order, np.cumsum(np.bincount(ids))[:-1]))
    totals = tuple(np.bincount(ids, weights=hotspots.area_m2).tolist())
    main = totals.index(max(totals))  # ties stay with the lowest id
    return ClusterSet(clusters=clusters, main_index=main, total_area_m2=totals)


def isolated_heat_sources(
    clusters: ClusterSet,
    hotspots: HotspotTable,
    gsd: float,
    params: SpatialParams | None = None,
) -> IsolationVerdict:
    """Detect heat sources far from the main fire perimeter.

    Yes when some non-main cluster's closest hotspot sits at least
    ``isolation_m`` from every hotspot of the main cluster, that is, when no
    member of that cluster lies strictly closer than ``isolation_m`` to a
    main-cluster member. With hotspots, ``clusters`` without a main cluster
    or with an index outside the table raise ``ValueError``.
    """
    params = params or SpatialParams()
    if not hotspots:
        return IsolationVerdict.NO_FIRE
    main_index, n = clusters.main_index, len(hotspots)
    members = [i for c in clusters.clusters for i in c]
    if main_index is None or not 0 <= main_index < len(clusters.clusters) or not all(0 <= i < n for i in members):
        raise ValueError(f"clusters need a main cluster and indices in [0, {n})")
    others = [(k, i) for k, c in enumerate(clusters.clusters) if k != main_index for i in c]
    if not others:
        return IsolationVerdict.NO
    owner, idx = np.array(others).T
    main = np.array(clusters.clusters[main_index])
    pts = hotspots.centroid_px
    i, j = _pairs_across(pts[idx], pts[main], params.isolation_m / gsd)
    near = _pair_distances(pts, idx[i], main[j], gsd) < params.isolation_m
    reached = np.zeros(len(clusters.clusters), dtype=bool)
    reached[owner[i[near]]] = True
    return IsolationVerdict.NO if reached[owner].all() else IsolationVerdict.YES


def linearity_score(hotspots: HotspotTable, gsd: float) -> float:
    """Dominant-eigenvalue share of the centroid covariance, in [0.5, 1].

    Covariance is normalized by N; the score is scale-free so the
    normalization choice is immaterial. Exactly collinear centroids score
    1.0; coincident centroids are degenerate and rejected.
    """
    if len(hotspots) < 2:
        raise ValueError("linearity needs at least 2 hotspots")
    pts = hotspots.centroid_px * gsd
    dx, dy = (pts - pts.mean(axis=0)).T
    sxx, sxy, syy = (float(np.add.reduce(d)) / len(pts) for d in (dx * dx, dx * dy, dy * dy))
    # Closed-form eigenvalues of the covariance [[sxx, sxy], [sxy, syy]].
    mid, half_gap = (sxx + syy) / 2.0, (sxx - syy) / 2.0
    root = math.sqrt(half_gap * half_gap + sxy * sxy)
    major, minor = mid + root, max(mid - root, 0.0)
    if major == 0.0:
        raise ValueError("degenerate: all centroids coincident")
    # Flush float dust on the minor axis so collinear layouts score exactly 1.
    if minor <= 1e-12 * major:
        minor = 0.0
    return major / (major + minor)


def classify_distribution(
    hotspots: HotspotTable, gsd: float, params: SpatialParams | None = None
) -> SpatialDistributionLabel:
    """Frame-level spatial distribution label.

    Linear requires the maximum centroid extent to strictly exceed d_lin
    (and, for 3+ hotspots, the linearity score to reach tau_lin). Otherwise
    the layout is Concentrated when the extent fits within alpha times the
    equivalent radius of the combined area, else Scattered. A single hotspot
    is Concentrated (zero extent).
    """
    params = params or SpatialParams()
    n = len(hotspots)
    if n == 0:
        return SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS

    a_tot = float(np.cumsum(hotspots.area_m2)[-1])
    r_eq = math.sqrt(a_tot / math.pi)
    d_max = _extent(hotspots.centroid_px, gsd)
    if n >= 2 and d_max > params.d_lin_m:
        if n == 2 or linearity_score(hotspots, gsd) >= params.tau_lin:
            return SpatialDistributionLabel.LINEAR

    if d_max <= params.alpha * r_eq:
        return SpatialDistributionLabel.CONCENTRATED
    return SpatialDistributionLabel.SCATTERED


def intensity_consistency(
    hotspots: HotspotTable, params: SpatialParams | None = None
) -> IntensityConsistencyLabel:
    """Similar vs clearly different hotspot intensity via robust CV.

    Per-hotspot intensity is the peak temperature. Similar when the robust
    coefficient of variation 1.4826 * MAD / max(median, eps) stays within
    tau_sim, or the peak spread stays within delta_t_sim.
    """
    params = params or SpatialParams()
    if not hotspots:
        return IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS
    peaks = hotspots.peak_temp_c
    rcv = robust_cv(peaks, params.epsilon)
    if rcv <= params.tau_sim or peaks.max() - peaks.min() <= params.delta_t_sim_c:
        return IntensityConsistencyLabel.SIMILAR
    return IntensityConsistencyLabel.CLEARLY_DIFFERENT


def robust_cv(peaks: Sequence[float], epsilon: float = 1e-6) -> float:
    """Robust coefficient of variation of a peak list: 1.4826 * MAD / max(median, epsilon)."""
    arr = np.asarray(peaks, dtype=np.float64)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    return 1.4826 * mad / max(med, epsilon)
