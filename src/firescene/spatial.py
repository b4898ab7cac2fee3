"""Spatial organization of hotspots: clustering, distribution, intensity.

Hotspot centroids are clustered by single linkage on ground-projected
distances; the largest-area cluster is the main fire. The frame-level labels
are the spatial distribution (linearity via PCA of centroids, then a
compactness test against the equivalent radius of the combined area) and the
intensity consistency (robust coefficient of variation of per-hotspot peaks).

Clusters are the graph components (``hotspots.components``) of the pairs
within the merge distance. Linkage and the extent still read the dense n x n
matrix of centroid ground distances, and isolation blocks of it, so each
takes O(n^2) time and memory for n hotspots: at most two n x n float64
arrays at once, 64 MB at 2000 hotspots.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .hotspots import Hotspot, components
from .records import Record


class SpatialDistributionLabel(enum.Enum):
    NO_ACTIVE_HOTSPOTS = "No active hotspots"
    LINEAR = "Linear"
    CONCENTRATED = "Concentrated"
    SCATTERED = "Scattered"


class IntensityConsistencyLabel(enum.Enum):
    NO_ACTIVE_HOTSPOTS = "No active hotspots"
    SIMILAR = "Similar intensity"
    CLEARLY_DIFFERENT = "Clearly different"


class IsolationVerdict(enum.Enum):
    YES = "Yes"
    NO = "No"
    NO_FIRE = "No fire"


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
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if not 0.5 < self.tau_lin <= 1.0:
            raise ValueError("tau_lin must lie in (0.5, 1]")


@dataclass(frozen=True)
class ClusterSet(Record):
    """Partition of hotspot list positions into proximity clusters.

    ``clusters[k]`` holds indices into the hotspot list passed to the
    clustering call, each sorted ascending; clusters are ordered by their
    smallest member. ``main_index`` selects the cluster with the largest
    total ground area (lowest cluster id on ties), or None when empty.
    """

    clusters: tuple[tuple[int, ...], ...]
    main_index: int | None
    total_area_m2: tuple[float, ...]


def centroid_distance(a: Hotspot, b: Hotspot, gsd: float) -> float:
    """Euclidean distance between pixel centroids, scaled to meters by GSD."""
    dx = (a.centroid_px[0] - b.centroid_px[0]) * gsd
    dy = (a.centroid_px[1] - b.centroid_px[1]) * gsd
    return math.hypot(dx, dy)


def _distances(a: list[Hotspot], b: list[Hotspot], gsd: float) -> np.ndarray:
    """|a| x |b| matrix of centroid ground distances, ``centroid_distance`` in bulk.

    Built in place, so at most two |a| x |b| float64 arrays are alive at once.
    """
    pa = np.array([h.centroid_px for h in a], dtype=np.float64).reshape(-1, 2)
    pb = np.array([h.centroid_px for h in b], dtype=np.float64).reshape(-1, 2)
    dx = np.subtract.outer(pa[:, 0], pb[:, 0])
    dx *= gsd
    dy = np.subtract.outer(pa[:, 1], pb[:, 1])
    dy *= gsd
    return np.hypot(dx, dy, out=dx)


def single_linkage_clusters(
    hotspots: list[Hotspot], gsd: float, params: SpatialParams | None = None
) -> ClusterSet:
    """Transitive closure of the "centroid distance <= d_merge" relation."""
    params = params or SpatialParams()
    n = len(hotspots)
    if n == 0:
        return ClusterSet(clusters=(), main_index=None, total_area_m2=())

    ids, _ = components(n, *np.nonzero(_distances(hotspots, hotspots, gsd) <= params.d_merge_m))
    order = np.argsort(ids, kind="stable")  # stable: each cluster's members stay ascending
    clusters = tuple(tuple(c.tolist()) for c in np.split(order, np.cumsum(np.bincount(ids))[:-1]))
    totals = tuple(sum(hotspots[i].area_m2 for i in c) for c in clusters)
    main = totals.index(max(totals))  # ties stay with the lowest id
    return ClusterSet(clusters=clusters, main_index=main, total_area_m2=totals)


def isolated_heat_sources(
    clusters: ClusterSet,
    hotspots: list[Hotspot],
    gsd: float,
    params: SpatialParams | None = None,
) -> IsolationVerdict:
    """Detect heat sources far from the main fire perimeter.

    Yes when some non-main cluster's closest hotspot sits at least
    ``isolation_m`` from every hotspot of the main cluster.
    """
    params = params or SpatialParams()
    if not hotspots:
        return IsolationVerdict.NO_FIRE
    assert clusters.main_index is not None
    main = [hotspots[j] for j in clusters.clusters[clusters.main_index]]
    for k, members in enumerate(clusters.clusters):
        if k != clusters.main_index:
            if _distances([hotspots[i] for i in members], main, gsd).min() >= params.isolation_m:
                return IsolationVerdict.YES
    return IsolationVerdict.NO


def linearity_score(hotspots: list[Hotspot], gsd: float) -> float:
    """Dominant-eigenvalue share of the centroid covariance, in [0.5, 1].

    Covariance is normalized by N; the score is scale-free so the
    normalization choice is immaterial. Exactly collinear centroids score
    1.0; coincident centroids are degenerate and rejected.
    """
    if len(hotspots) < 2:
        raise ValueError("linearity needs at least 2 hotspots")
    pts = np.array([h.centroid_px for h in hotspots], dtype=np.float64) * gsd
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    lam = np.linalg.eigvalsh(cov)  # ascending
    lam = np.maximum(lam, 0.0)
    total = float(lam[0] + lam[1])
    if total == 0.0:
        raise ValueError("degenerate: all centroids coincident")
    # Flush float dust on the minor axis so collinear layouts score exactly 1.
    minor = 0.0 if lam[0] <= 1e-12 * lam[1] else float(lam[0])
    return float(lam[1]) / (float(lam[1]) + minor)


def classify_distribution(
    hotspots: list[Hotspot], gsd: float, params: SpatialParams | None = None
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

    d_max = float(_distances(hotspots, hotspots, gsd).max())
    if n >= 2 and d_max > params.d_lin_m:
        if n == 2 or linearity_score(hotspots, gsd) >= params.tau_lin:
            return SpatialDistributionLabel.LINEAR

    a_tot = sum(h.area_m2 for h in hotspots)
    r_eq = math.sqrt(a_tot / math.pi)
    if d_max <= params.alpha * r_eq:
        return SpatialDistributionLabel.CONCENTRATED
    return SpatialDistributionLabel.SCATTERED


def intensity_consistency(
    hotspots: list[Hotspot], params: SpatialParams | None = None
) -> IntensityConsistencyLabel:
    """Similar vs clearly different hotspot intensity via robust CV.

    Per-hotspot intensity is the peak temperature. Similar when the robust
    coefficient of variation 1.4826 * MAD / max(median, eps) stays within
    tau_sim, or the peak spread stays within delta_t_sim.
    """
    params = params or SpatialParams()
    if not hotspots:
        return IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS
    peaks = [h.peak_temp_c for h in hotspots]
    rcv = robust_cv(peaks, params.epsilon)
    if rcv <= params.tau_sim or max(peaks) - min(peaks) <= params.delta_t_sim_c:
        return IntensityConsistencyLabel.SIMILAR
    return IntensityConsistencyLabel.CLEARLY_DIFFERENT


def robust_cv(peaks: list[float], epsilon: float = 1e-6) -> float:
    """Robust coefficient of variation of a peak list: 1.4826 * MAD / max(median, epsilon)."""
    arr = np.asarray(peaks, dtype=np.float64)
    med = float(np.median(arr))
    mad = float(np.median(np.abs(arr - med)))
    return 1.4826 * mad / max(med, epsilon)
