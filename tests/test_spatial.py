from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factories import disk_area, make_hotspot, table_from_rows
from firescene.hotspots import HotspotTable
from firescene.spatial import (
    ClusterSet,
    IntensityConsistencyLabel,
    IsolationVerdict,
    SpatialDistributionLabel,
    SpatialParams,
    classify_distribution,
    intensity_consistency,
    isolated_heat_sources,
    linearity_score,
    robust_cv,
    single_linkage_clusters,
)
from firescene import spatial
from firescene.spatial import _extent, _farthest


def centroid_distance(a, b, gsd):
    """Oracle: Euclidean distance between pixel centroids, scaled to meters by GSD."""
    dx = (a.centroid_px[0] - b.centroid_px[0]) * gsd
    dy = (a.centroid_px[1] - b.centroid_px[1]) * gsd
    return math.hypot(dx, dy)


def spots_at(points_m, gsd=1.0, area=2.0, peaks=None):
    peaks = peaks or [300.0] * len(points_m)
    return table_from_rows(HotspotTable, (
        make_hotspot(i, x / gsd, y / gsd, area_m2=area, peak_c=p, gsd=gsd)
        for i, ((x, y), p) in enumerate(zip(points_m, peaks))
    ))


NO_SPOTS = table_from_rows(HotspotTable, [])


class TestCentroidDistance:
    def test_identical(self):
        a = make_hotspot(0, 5.0, 5.0)
        assert centroid_distance(a, a, 0.5) == 0.0

    def test_horizontal_scaled(self):
        a, b = make_hotspot(0, 0.0, 0.0), make_hotspot(1, 30.0, 0.0)
        assert centroid_distance(a, b, 0.5) == pytest.approx(15.0)

    def test_three_four_five(self):
        a, b = make_hotspot(0, 0.0, 0.0), make_hotspot(1, 3.0, 4.0)
        assert centroid_distance(a, b, 2.0) == pytest.approx(10.0)


class TestSingleLinkage:
    def test_chain_merging(self):
        spots = spots_at([(0, 0), (8, 0), (16, 0)])
        cs = single_linkage_clusters(spots, 1.0)
        assert cs.clusters == ((0, 1, 2),)
        assert cs.main_index == 0

    def test_two_pairs(self):
        spots = spots_at([(0, 0), (5, 0), (50, 0), (55, 0)])
        cs = single_linkage_clusters(spots, 1.0)
        assert cs.clusters == ((0, 1), (2, 3))

    def test_empty(self):
        cs = single_linkage_clusters(NO_SPOTS, 1.0)
        assert cs.clusters == ()
        assert cs.main_index is None

    def test_main_cluster_by_total_area_with_tie_break(self):
        spots = [
            make_hotspot(0, 0.0, 0.0, area_m2=3.0),
            make_hotspot(1, 100.0, 0.0, area_m2=3.0),  # equal area: lowest id wins
        ]
        cs = single_linkage_clusters(table_from_rows(HotspotTable, spots), 1.0)
        assert cs.main_index == 0

        spots[1] = make_hotspot(1, 100.0, 0.0, area_m2=5.0)
        cs = single_linkage_clusters(table_from_rows(HotspotTable, spots), 1.0)
        assert cs.main_index == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        pts = rng.uniform(0, 60, size=(n, 2))
        spots = spots_at([tuple(p) for p in pts])
        base = single_linkage_clusters(spots, 1.0)

        perm = rng.permutation(n)
        shuffled = table_from_rows(HotspotTable, (spots[i] for i in perm))
        cs = single_linkage_clusters(shuffled, 1.0)
        # Map member positions back through the permutation and compare partitions.
        mapped = sorted(tuple(sorted(perm[i] for i in c)) for c in cs.clusters)
        assert mapped == sorted(tuple(c) for c in base.clusters)


class TestIsolatedHeatSources:
    def test_no_fire(self):
        cs = single_linkage_clusters(NO_SPOTS, 1.0)
        assert isolated_heat_sources(cs, NO_SPOTS, 1.0) == IsolationVerdict.NO_FIRE

    def test_far_singleton(self):
        spots = spots_at([(0, 0), (4, 0), (45, 0)], area=5.0)
        cs = single_linkage_clusters(spots, 1.0)
        assert len(cs.clusters) == 2
        assert isolated_heat_sources(cs, spots, 1.0) == IsolationVerdict.YES

    def test_near_singleton_own_cluster(self):
        # Nearest main-cluster member sits 12 m away: beyond d_merge (10) so
        # the singleton is its own cluster, but inside the 30 m isolation radius.
        spots = spots_at([(0, 0), (4, 0), (16, 0)], area=5.0)
        cs = single_linkage_clusters(spots, 1.0)
        assert len(cs.clusters) == 2
        assert isolated_heat_sources(cs, spots, 1.0) == IsolationVerdict.NO

    def test_boundary_inclusive_at_30(self):
        spots = spots_at([(0, 0), (30, 0)], area=5.0)
        cs = single_linkage_clusters(spots, 1.0)
        assert isolated_heat_sources(cs, spots, 1.0) == IsolationVerdict.YES

    @pytest.mark.parametrize(
        "clusters, main",
        [((), None), (((0,), (1,)), None), (((0,), (1,)), 2), (((0,), (1,)), -1)],
        ids=["empty", "none", "past-end", "negative"],
    )
    def test_clusters_without_a_main_cluster_rejected(self, clusters, main):
        cs = ClusterSet(clusters=clusters, main_index=main, total_area_m2=(2.0,) * len(clusters))
        with pytest.raises(ValueError, match="need a main cluster"):
            isolated_heat_sources(cs, spots_at([(0, 0), (45, 0)]), 1.0)

    @pytest.mark.parametrize("clusters", [((0,), (2,)), ((0, 1), (-1,)), ((5,), (1,))],
                             ids=["other-past-end", "negative", "main-past-end"])
    def test_indices_outside_the_table_rejected(self, clusters):
        cs = ClusterSet(clusters=clusters, main_index=0, total_area_m2=(2.0, 2.0))
        with pytest.raises(ValueError, match=r"indices in \[0, 2\)"):
            isolated_heat_sources(cs, spots_at([(0, 0), (45, 0)]), 1.0)


class TestSpatialParams:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("field", [f.name for f in fields(SpatialParams)])
    def test_non_positive_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            SpatialParams(**{field: value})


class TestLinearityScore:
    def test_collinear_exact_one(self):
        spots = spots_at([(0, 0), (10, 0), (20, 0)])
        assert linearity_score(spots, 1.0) == 1.0

    def test_unit_square_isotropic(self):
        spots = spots_at([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert linearity_score(spots, 1.0) == pytest.approx(0.5)

    def test_hand_computed_covariance(self):
        # Covariance of (0,0),(10,1),(20,-1),(30,0): [[125,-2.5],[-2.5,0.5]];
        # closed-form eigenvalues give L = 0.9964157814947204.
        spots = spots_at([(0, 0), (10, 1), (20, -1), (30, 0)])
        assert linearity_score(spots, 1.0) == pytest.approx(0.9964157814947204, abs=1e-12)

    def test_coincident_degenerate(self):
        spots = spots_at([(5, 5), (5, 5)])
        with pytest.raises(ValueError, match="coincident"):
            linearity_score(spots, 1.0)

    def test_single_hotspot_rejected(self):
        with pytest.raises(ValueError):
            linearity_score(spots_at([(0, 0)]), 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scale_free(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, size=(int(rng.integers(3, 8)), 2))
        if np.allclose(pts, pts[0]):
            return
        spots = spots_at([tuple(p) for p in pts])
        l1 = linearity_score(spots, 1.0)
        l2 = linearity_score(spots, 7.5)  # different GSD rescales all points
        assert l1 == pytest.approx(l2, rel=1e-9)
        assert 0.5 - 1e-9 <= l1 <= 1.0


class TestClassifyDistribution:
    def test_no_hotspots(self):
        assert classify_distribution(NO_SPOTS, 1.0) == SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS

    def test_single_hotspot_concentrated(self):
        got = classify_distribution(spots_at([(7, 7)]), 1.0)
        assert got == SpatialDistributionLabel.CONCENTRATED

    def test_collinear_linear(self):
        # L = 1, D_max = 24 > 20.
        spots = spots_at([(0, 0), (12, 0), (24, 0)])
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.LINEAR

    def test_two_disks_concentrated(self):
        # Two 2 m disks: A_tot = 25.13 m^2, r_eq = 2.83, alpha*r_eq = 11.31;
        # 8 m apart: not Linear (8 <= 20), Concentrated (8 <= 11.31).
        area = disk_area(2.0)
        spots = spots_at([(0, 0), (8, 0)], area=area)
        assert sum(s.area_m2 for s in spots) == pytest.approx(25.13, abs=0.01)
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.CONCENTRATED

    def test_two_small_disks_scattered(self):
        # Two 0.8 m disks: r_eq = 1.13, alpha*r_eq = 4.52; 15 m apart.
        spots = spots_at([(0, 0), (15, 0)], area=disk_area(0.8))
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.SCATTERED

    def test_two_far_hotspots_linear(self):
        spots = spots_at([(0, 0), (25, 0)], area=disk_area(0.8))
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.LINEAR

    def test_d_lin_boundary_strict(self):
        # Extent exactly 20 m is not Linear; falls through to compactness.
        spots = spots_at([(0, 0), (20, 0)], area=disk_area(0.8))
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.SCATTERED

    def test_alpha_r_eq_boundary_inclusive(self):
        # D_max exactly equal to alpha*r_eq stays Concentrated.
        area = 4.0 * math.pi  # r_eq for two = sqrt(8pi/pi) = sqrt(8) per disk pair
        spots = spots_at([(0, 0), (2.0, 0)], area=area)
        r_eq = math.sqrt(2 * area / math.pi)
        spots = spots_at([(0, 0), (4.0 * r_eq, 0)], area=area)
        d_max = 4.0 * r_eq
        assert d_max <= 20.0
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.CONCENTRATED

    def test_three_spread_but_not_linear(self):
        # Triangle with extent > 20 m but low linearity: falls to scattered.
        spots = spots_at([(0, 0), (22, 0), (11, 19)], area=disk_area(0.8))
        assert linearity_score(spots, 1.0) < 0.9
        assert classify_distribution(spots, 1.0) == SpatialDistributionLabel.SCATTERED

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_label_and_rigid_motion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        pts = rng.uniform(0, 60, size=(n, 2))
        areas = rng.uniform(1.8, 40.0)
        spots = spots_at([tuple(p) for p in pts], area=float(areas))
        label = classify_distribution(spots, 1.0)
        assert label in (
            SpatialDistributionLabel.LINEAR,
            SpatialDistributionLabel.CONCENTRATED,
            SpatialDistributionLabel.SCATTERED,
        )

        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shifted = pts @ rot.T + rng.uniform(-100, 100, size=2)
        moved = spots_at([tuple(p) for p in shifted], area=float(areas))
        assert classify_distribution(moved, 1.0) == label

    @given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_consistent_scaling_preserves_labels(self, seed, s):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        pts = rng.uniform(0, 50, size=(n, 2))
        area = float(rng.uniform(1.8, 30.0))
        spots = spots_at([tuple(p) for p in pts], area=area)
        base = classify_distribution(spots, 1.0)

        scaled = spots_at([tuple(p * s) for p in pts], area=area * s * s)
        params = SpatialParams(
            d_merge_m=10.0 * s,
            isolation_m=30.0 * s,
            d_lin_m=20.0 * s,
        )
        assert classify_distribution(scaled, 1.0, params) == base


class TestIntensityConsistency:
    def test_no_hotspots(self):
        got = intensity_consistency(NO_SPOTS)
        assert got == IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS

    def test_similar_by_rcv(self):
        # Median 255, MAD 5: rCV = 1.4826*5/255 = 0.029071 <= 0.10.
        spots = spots_at([(0, 0), (40, 0), (80, 0)], peaks=[250.0, 255.0, 260.0])
        assert robust_cv([250.0, 255.0, 260.0]) == pytest.approx(0.0291, abs=1e-4)
        assert intensity_consistency(spots) == IntensityConsistencyLabel.SIMILAR

    def test_clearly_different(self):
        # Median 355, MAD 145: rCV = 0.6055; spread 290 > 20.
        spots = spots_at([(0, 0), (40, 0)], peaks=[210.0, 500.0])
        assert robust_cv([210.0, 500.0]) == pytest.approx(0.6055, abs=1e-4)
        assert intensity_consistency(spots) == IntensityConsistencyLabel.CLEARLY_DIFFERENT

    def test_single_hotspot_similar(self):
        assert intensity_consistency(spots_at([(0, 0)], peaks=[900.0])) == (
            IntensityConsistencyLabel.SIMILAR
        )

    def test_similar_by_small_spread_despite_high_rcv(self):
        # Low medians inflate rCV, but spread within 20 C keeps it Similar.
        peaks = [210.0, 228.0]
        spots = spots_at([(0, 0), (40, 0)], peaks=peaks)
        assert intensity_consistency(spots) == IntensityConsistencyLabel.SIMILAR

    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 500.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_behavior(self, seed, shift):
        rng = np.random.default_rng(seed)
        peaks = rng.uniform(200, 900, size=int(rng.integers(2, 7)))
        if np.ptp(peaks) < 1e-6:
            return
        base = robust_cv(list(peaks))
        shifted = robust_cv(list(peaks + shift))
        # Spread is shift-invariant; rCV strictly decreases under positive shift.
        assert np.ptp(peaks + shift) == pytest.approx(np.ptp(peaks), abs=1e-9)
        assert shifted < base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_two_hotspot_algebraic_identity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = sorted(rng.uniform(200, 900, size=2))
        peaks = [float(a), float(b)]
        # With two peaks: median = mean, MAD = spread/2.
        rcv = robust_cv(peaks)
        identity = 1.4826 * (b - a) / (2 * ((a + b) / 2))
        assert rcv == pytest.approx(identity, rel=1e-12)


# Pixel offsets of pairs planted exactly 10, 20 and 30 m apart at a GSD of 1 m.
_PLANTED_OFFSETS_M = [(6, 8), (8, -6), (0, 10), (12, 16), (20, 0), (18, 24), (-24, 18), (0, 30)]


@st.composite
def _integer_layouts(draw):
    """1-40 hotspots on an integer pixel grid, some 10, 20 or 30 m from the first.

    A span of 0 puts every unplanted hotspot on the first one's pixel, so that
    the planted offsets alone set the extent, which then can sit exactly on d_lin.
    """
    gsd = draw(st.sampled_from([1.0, 0.5]))
    scale = round(1.0 / gsd)  # pixels per meter
    coord = st.integers(0, draw(st.sampled_from([0, 15, 60])) * scale)
    n = draw(st.integers(1, 40))
    points = [(draw(coord), draw(coord))]
    while len(points) < n:
        if draw(st.booleans()):
            dx, dy = draw(st.sampled_from(_PLANTED_OFFSETS_M))
            points.append((points[0][0] + dx * scale, points[0][1] + dy * scale))
        else:
            points.append((draw(coord), draw(coord)))
    areas = [draw(st.sampled_from([0.5, 2.0, 7.0, 30.0])) for _ in points]
    rows = [make_hotspot(i, x, y, area_m2=a, gsd=gsd) for i, ((x, y), a) in enumerate(zip(points, areas))]
    return gsd, table_from_rows(HotspotTable, rows)


def _brute_clusters(spots, gsd, p):
    """Single linkage by relaxing the smallest reachable index over every pair."""
    spots = list(spots)
    root = list(range(len(spots)))
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(spots):
            for j, b in enumerate(spots):
                if centroid_distance(a, b, gsd) <= p.d_merge_m and root[i] < root[j]:
                    root[j] = root[i]
                    changed = True
    clusters = [tuple(j for j in range(len(spots)) if root[j] == r) for r in sorted(set(root))]
    totals = [sum(spots[i].area_m2 for i in c) for c in clusters]
    return clusters, totals.index(max(totals))


def _brute_isolated(spots, gsd, clusters, main, p):
    spots = list(spots)
    return any(
        min(centroid_distance(spots[i], spots[j], gsd) for i in c for j in clusters[main]) >= p.isolation_m
        for k, c in enumerate(clusters)
        if k != main
    )


def _brute_distribution(table, gsd, p):
    spots = list(table)
    return _distribution_at(table, gsd, p, max(centroid_distance(a, b, gsd) for a in spots for b in spots))


def _distribution_at(table, gsd, p, d_max):
    """``classify_distribution``'s rule for an extent found elsewhere."""
    if len(table) >= 2 and d_max > p.d_lin_m:
        if len(table) == 2 or linearity_score(table, gsd) >= p.tau_lin:
            return SpatialDistributionLabel.LINEAR
    r_eq = math.sqrt(sum(h.area_m2 for h in table) / math.pi)
    if d_max <= p.alpha * r_eq:
        return SpatialDistributionLabel.CONCENTRATED
    return SpatialDistributionLabel.SCATTERED


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


# alpha * r_eq for three hotspots of 20 m^2 (under d_lin), in classify_distribution's arithmetic.
_ALPHA_R_EQ = SpatialParams().alpha * math.sqrt((20.0 + 20.0 + 20.0) / math.pi)


def _dense_classifiers(table, gsd, p):
    """Clusters, main index, isolation verdict and distribution label over the dense
    n x n matrix of centroid ground distances, in ``centroid_distance``'s arithmetic."""
    spots = list(table)
    pts = np.array([h.centroid_px for h in spots])
    dx = np.subtract.outer(pts[:, 0], pts[:, 0]) * gsd
    dy = np.subtract.outer(pts[:, 1], pts[:, 1]) * gsd
    dist = np.hypot(dx, dy)
    n = len(spots)
    root = np.arange(n)  # smallest member reachable over merge edges, by relaxation
    while True:
        low = np.where(dist <= p.d_merge_m, root[None, :], n).min(axis=1)
        if np.array_equal(np.minimum(root, low), root):
            break
        root = np.minimum(root, low)
    clusters = tuple(tuple(np.flatnonzero(root == r).tolist()) for r in np.unique(root))
    totals = [sum(spots[i].area_m2 for i in c) for c in clusters]
    main = totals.index(max(totals))
    isolated = any(
        dist[np.ix_(c, clusters[main])].min() >= p.isolation_m for k, c in enumerate(clusters) if k != main
    )
    d_max = float(dist.max())
    r_eq = math.sqrt(sum(h.area_m2 for h in spots) / math.pi)
    if n >= 2 and d_max > p.d_lin_m and (n == 2 or linearity_score(table, gsd) >= p.tau_lin):
        label = SpatialDistributionLabel.LINEAR
    elif d_max <= p.alpha * r_eq:
        label = SpatialDistributionLabel.CONCENTRATED
    else:
        label = SpatialDistributionLabel.SCATTERED
    return clusters, main, IsolationVerdict.YES if isolated else IsolationVerdict.NO, label


class TestDistanceMatrixOracle:
    @given(_integer_layouts())
    @example((1.0, spots_at([(0, 0), (6, 8), (40, 0)])))  # merge distance exactly 10 m
    @example((1.0, spots_at([(7, 7), (13, 15), (50, 50)])))  # exactly 10 m, across a cell corner
    @example((1.0, spots_at([(13, 7), (7, 15), (50, 50)])))  # the other diagonal
    @example((1.0, spots_at([(5, 0), (15, 0), (45, 0)])))  # exactly 10 m, across a cell edge
    # Exactly 10 m apart, yet two cells apart on a grid exactly d_merge / gsd wide, without the margin.
    @example((1 / 3, table_from_rows(HotspotTable,
        [make_hotspot(0, 29.999999999999996, 0.0, gsd=1 / 3), make_hotspot(1, 60.0, 0.0, gsd=1 / 3)])))
    @example((-1.0, spots_at([(0, 0), (6, 8), (40, 0), (45, 0)], gsd=-1.0)))  # negative gsd: |gsd| scales
    @example((1.0, spots_at([(0, 0), (_below(10.0), 0), (45, 0)])))  # one ulp inside d_merge
    @example((1.0, spots_at([(0, 0), (_above(10.0), 0), (45, 0)])))  # one ulp outside d_merge
    @example((0.5, spots_at([(10, 10), (10, 5), (28, 34)], gsd=0.5)))  # isolation exactly 30 m
    @example((1.0, spots_at([(0, 0), (5, 0), (35, 0)])))  # isolation exactly 30 m, across a cell edge
    @example((1.0, spots_at([(0, 0), (5, 0), (_below(35.0), 0)])))  # one ulp inside isolation
    @example((1.0, spots_at([(0, 0), (0, 0), (20, 0)])))  # extent exactly d_lin
    @example((1.0, spots_at([(0, 0), (10, 1), (_below(20.0), 0)])))  # one ulp below d_lin
    @example((1.0, spots_at([(0, 0), (10, 1), (20, 0)])))  # on d_lin, three hotspots
    @example((1.0, spots_at([(0, 0), (10, 1), (_above(20.0), 0)])))  # one ulp above d_lin
    @example((1.0, spots_at([(0, 0), (_ALPHA_R_EQ / 2, 1), (_below(_ALPHA_R_EQ), 0)], area=20.0)))
    @example((1.0, spots_at([(0, 0), (_ALPHA_R_EQ / 2, 1), (_ALPHA_R_EQ, 0)], area=20.0)))  # on alpha r_eq
    @example((1.0, spots_at([(0, 0), (_ALPHA_R_EQ / 2, 1), (_above(_ALPHA_R_EQ), 0)], area=20.0)))
    @settings(max_examples=150, deadline=None)
    def test_matches_pair_loop_over_centroid_distance(self, layout):
        gsd, spots = layout
        p = SpatialParams()
        clusters, main = _brute_clusters(spots, gsd, p)
        cs = single_linkage_clusters(spots, gsd, p)
        assert cs.clusters == tuple(clusters)
        assert cs.main_index == main
        got = isolated_heat_sources(cs, spots, gsd, p)
        want = _brute_isolated(spots, gsd, clusters, main, p)
        assert got == (IsolationVerdict.YES if want else IsolationVerdict.NO)
        assert classify_distribution(spots, gsd, p) == _brute_distribution(spots, gsd, p)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("gsd", [0.552, 10.0 / 12.0])
    def test_crowded_field_matches_dense_matrix(self, seed, gsd):
        # 50 x 40 hotspots on a 12 px grid with +-1 px jitter, as in the benchmark's
        # ember frames; at 10/12 m/px the grid step sits on the merge distance itself.
        rng = np.random.default_rng(seed)
        gy, gx = np.mgrid[0:40, 0:50]
        xs = 20 + 12 * gx + rng.integers(-1, 2, gx.shape)
        ys = 16 + 12 * gy + rng.integers(-1, 2, gy.shape)
        areas = rng.uniform(0.5, 30.0, gx.size)
        spots = table_from_rows(HotspotTable, (make_hotspot(i, float(x), float(y), area_m2=float(a), gsd=gsd)
                                               for i, (x, y, a) in enumerate(zip(xs.ravel(), ys.ravel(), areas))))
        p = SpatialParams()
        clusters, main, isolated, label = _dense_classifiers(spots, gsd, p)
        cs = single_linkage_clusters(spots, gsd, p)
        assert (cs.clusters, cs.main_index) == (clusters, main)
        assert isolated_heat_sources(cs, spots, gsd, p) == isolated
        assert classify_distribution(spots, gsd, p) == label

    def test_many_clusters_match_kd_tree_pairs(self):
        spatial_tree = pytest.importorskip("scipy.spatial")
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        n, gsd, p = 2000, 0.5, SpatialParams()
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1300, size=(n, 2))  # about 1.5 hotspots within d_merge of each
        spots = table_from_rows(HotspotTable, (make_hotspot(i, x, y, gsd=gsd) for i, (x, y) in enumerate(pts.tolist())))
        pairs = spatial_tree.cKDTree(pts).query_pairs(p.d_merge_m / gsd, output_type="ndarray")
        graph = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        _, kd_ids = csgraph.connected_components(graph, directed=False)
        want = sorted(tuple(np.flatnonzero(kd_ids == k).tolist()) for k in np.unique(kd_ids))
        cs = single_linkage_clusters(spots, gsd, p)
        assert 500 < len(cs.clusters) < n
        assert list(cs.clusters) == want  # ordered by smallest member, as sorted tuples are

        main = list(cs.clusters[cs.main_index])
        near_main = spatial_tree.cKDTree(pts[main]).query_ball_point(pts, p.isolation_m / gsd)
        isolated = any(not any(near_main[i] for i in c) for k, c in enumerate(cs.clusters) if k != cs.main_index)
        assert isolated_heat_sources(cs, spots, gsd, p) == (IsolationVerdict.YES if isolated else IsolationVerdict.NO)

    @pytest.mark.parametrize("classifier", ["linkage", "distribution", "isolation"])
    def test_peak_memory_linear_in_hotspots(self, classifier):
        # A field of 10 000 hotspots, 1500 per 600 x 600 px at 0.2 m/px, and a row of
        # singletons 15 m below it that isolation must test against it.
        n, gsd = 10_000, 0.2
        side = 600.0 * math.sqrt(n / 1500)
        rng = np.random.default_rng(5)
        field = rng.uniform(0, side, size=(n, 2)).tolist() + [(x, side + 75.0) for x in range(0, int(side), 60)]
        spots = table_from_rows(HotspotTable, (make_hotspot(i, x, y, gsd=gsd) for i, (x, y) in enumerate(field)))
        cs = single_linkage_clusters(spots, gsd)
        run = {
            "linkage": lambda: single_linkage_clusters(spots, gsd),
            "distribution": lambda: classify_distribution(spots, gsd),
            "isolation": lambda: isolated_heat_sources(cs, spots, gsd),
        }[classifier]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cs.clusters) > 20  # the singletons are clusters of their own
        assert peak <= 4096 * len(spots)  # the n x n matrices would take 1.6 GB


def _ember_grid(seed, gsd, area=2.0):
    """50 x 40 centroids on a 12 px grid with +-1 px jitter, as in the ember frames."""
    rng = np.random.default_rng(seed)
    gy, gx = np.mgrid[0:40, 0:50]
    xs = 20 + 12 * gx + rng.integers(-1, 2, gx.shape)
    ys = 16 + 12 * gy + rng.integers(-1, 2, gy.shape)
    return table_from_rows(HotspotTable, (make_hotspot(i, float(x), float(y), area_m2=area, gsd=gsd)
                                          for i, (x, y) in enumerate(zip(xs.ravel(), ys.ravel()))))


# Any float in range, zero and subnormals included, so that tiny extents reach ``_extent``'s guard.
_COORDS = st.floats(-1e6, 1e6)


@st.composite
def _layouts(draw):
    """1-60 points: on an integer or half-integer grid, from a few shared values (duplicates
    and collinear runs), on a line computed in floats (nearly collinear), or drawn freely."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["grid", "half", "few", "line", "free"]))
    if kind in ("grid", "half"):
        span = draw(st.sampled_from([1, 3, 20]))
        coords = [(draw(st.integers(-span, span)), draw(st.integers(-span, span))) for _ in range(n)]
        return np.array(coords, dtype=np.float64) / (2.0 if kind == "half" else 1.0)
    if kind == "few":
        values = draw(st.lists(_COORDS, min_size=1, max_size=3))
        return np.array([(draw(st.sampled_from(values)), draw(st.sampled_from(values))) for _ in range(n)])
    if kind == "line":
        x0, y0, dx, dy = (draw(_COORDS) for _ in range(4))
        ts = [draw(st.floats(-10.0, 10.0)) for _ in range(n)]
        return np.array([(x0 + t * dx, y0 + t * dy) for t in ts])
    return np.array([(draw(_COORDS), draw(_COORDS)) for _ in range(n)])


_LAYOUTS = {
    "integer-grid": np.array([(x, y) for x in range(7) for y in range(5)], dtype=np.float64),
    "half-integer-grid": np.array([(x / 2, y / 2) for x in range(-5, 6) for y in range(-3, 4)]),
    "collinear-horizontal": np.array([(x, 4.0) for x in (3.0, -1.0, 7.5, 0.0, 2.0)]),
    "collinear-diagonal": np.array([(t, t) for t in range(-6, 7)], dtype=np.float64),
    "collinear-tenth-slope": np.array([(x, 0.1 * x) for x in range(-20, 21)], dtype=np.float64),
    "duplicates": np.array([(1.0, 1.0)] * 4 + [(5.0, 1.0)] * 3 + [(3.0, 4.0)] * 2 + [(3.0, 2.0)] * 5),
    "one-point-repeated": np.array([(2.5, -1.0)] * 6),
    "one-point": np.array([(3.0, 4.0)]),
    "two-points": np.array([(0.0, 0.0), (3.0, 4.0)]),
    # Six points of a slope-1 line computed in floats, so only nearly collinear.
    "rounded-diagonal-line": np.array([
        (-916.2134555716466, -295.04578097612665), (1602.1014393508021, 2223.269113946322),
        (-893.1682115375893, -272.00053694206946), (-1098.934801443577, -477.7671268480571),
        (-2517.6806021362227, -1896.5129275407025), (1870.1445430986812, 2491.312217694201),
    ]),
    "ring-and-centre": np.array([(math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)) for k in range(16)]
                                + [(0.0, 0.0), (0.25, -0.1)]),
    "subnormal": np.array([(x * 1e-310, y * 1e-310) for x in range(-3, 4) for y in range(3)]),
    "near-max": np.array([(x * 1e308, y * 1e308) for x in (-1.7, -0.5, 0.0, 1.2, 1.7) for y in (-1.7, 0.3, 1.7)]),
}

# Unit pixels, a crowded frame's, negative, ones that send the extent toward underflow or overflow,
# and the smallest subnormal, at which every rounded distance is a few ulps.
_GSDS = (1.0, 0.552, -2.0, 1e-300, 1e300, 5e-324)


class TestExtent:
    """``_extent`` returns ``_farthest`` over all pairs bit for bit, and warns of nothing."""

    @staticmethod
    def _assert_all_pairs(points):
        for gsd in _GSDS:
            with np.errstate(over="ignore", invalid="ignore"):  # the oracle's own non-finite arithmetic
                want = _farthest(points, gsd)
            got = _extent(points, gsd)  # the suite turns a warning into an error
            assert got == want or (math.isnan(got) and math.isnan(want)), (gsd, got, want)

    @given(_layouts())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs(self, points):
        self._assert_all_pairs(points)

    @pytest.mark.parametrize("name", sorted(_LAYOUTS))
    def test_matches_all_pairs_on_layout(self, name):
        self._assert_all_pairs(_LAYOUTS[name])

    def test_matches_all_pairs_on_a_ring(self):
        # Each point's distance to the centre plus the largest one is about the diameter, so none is cut.
        angle = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
        self._assert_all_pairs(np.stack([np.cos(angle), np.sin(angle)], axis=1) * 250.0 + 300.0)

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (2.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
                                     (math.nan, math.inf)])
    def test_matches_all_pairs_with_non_finite_points(self, bad):
        grid = _LAYOUTS["integer-grid"]
        for at in (0, 17, len(grid)):
            self._assert_all_pairs(np.insert(grid, at, [bad, bad], axis=0))

    def test_all_points_non_finite(self):
        self._assert_all_pairs(np.array([(math.nan, 0.0), (math.inf, math.inf)]))

    def test_cut_leaves_few_points_of_a_crowded_field(self, monkeypatch):
        points = _ember_grid(0, 1.0).centroid_px
        sizes = []

        def farthest(pts, gsd):
            sizes.append(len(pts))
            return _farthest(pts, gsd)

        monkeypatch.setattr(spatial, "_farthest", farthest)
        assert spatial._extent(points, 1.0) == _farthest(points, 1.0)
        assert sizes[-1] < len(points) // 10  # the final all-pairs pass

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("gsd", [0.552, 10.0 / 12.0, 1.0])
    def test_ember_grid_label_matches_all_pairs(self, seed, gsd):
        spots, p = _ember_grid(seed, gsd), SpatialParams()
        points = spots.centroid_px
        d_all = _farthest(points, gsd)
        r_eq = math.sqrt(sum(spots.area_m2.tolist()) / math.pi)
        assert _extent(points, gsd) == d_all
        # The smallest alpha with alpha * r_eq at or above the all-pairs extent, then one ulp
        # under it: the label turns between them.
        alpha = d_all / r_eq
        while alpha * r_eq < d_all:
            alpha = math.nextafter(alpha, math.inf)
        while math.nextafter(alpha, -math.inf) * r_eq >= d_all:
            alpha = math.nextafter(alpha, -math.inf)
        for a, want in ((alpha, SpatialDistributionLabel.CONCENTRATED),
                        (math.nextafter(alpha, -math.inf), SpatialDistributionLabel.SCATTERED)):
            q = SpatialParams(alpha=a)
            assert _distribution_at(spots, gsd, q, d_all) == want
            assert classify_distribution(spots, gsd, q) == want
        assert classify_distribution(spots, gsd, p) == _distribution_at(spots, gsd, p, d_all)


class TestClusterSetSerialization:
    def test_round_trip(self):
        spots = spots_at([(0, 0), (5, 0), (50, 0)], area=3.0)
        cs = single_linkage_clusters(spots, 1.0)
        assert ClusterSet.from_dict(cs.as_dict()) == cs
