from __future__ import annotations

import math
import tracemalloc
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import table_from_rows
from firescene.hotspots import (
    Hotspot,
    HotspotParams,
    HotspotTable,
    _hot_components,
    _label,
    components,
    connected_components,
    extract_hotspots,
    gsd,
    hot_mask,
    hottest_location,
    locate_pixel,
)
from firescene.raster import ThermalRaster
from test_golden import typical


NO_SPOTS = table_from_rows(HotspotTable, [])


def _raster(arr) -> ThermalRaster:
    return ThermalRaster.from_array(np.asarray(arr, dtype=np.float64))


def flood_fill_components(mask: np.ndarray) -> list[set[tuple[int, int]]]:
    """Independent BFS oracle for 8-connected labeling, first-encounter order."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for y in range(h):
        for x in range(w):
            if mask[y, x] and not seen[y, x]:
                comp = set()
                queue = deque([(y, x)])
                seen[y, x] = True
                while queue:
                    cy, cx = queue.popleft()
                    comp.add((cy, cx))
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = cy + dy, cx + dx
                            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                queue.append((ny, nx))
                comps.append(comp)
    return comps


class TestHotMask:
    def test_all_cold(self):
        assert not hot_mask(_raster(np.full((4, 4), 25.0)), 200.0).any()

    def test_inclusive_boundary(self):
        arr = np.full((3, 3), 100.0)
        arr[1, 2] = 200.0
        m = hot_mask(_raster(arr), 200.0)
        assert m.sum() == 1 and m[1, 2]

    def test_checkerboard(self):
        yy, xx = np.mgrid[0:8, 0:8]
        board = np.where((yy + xx) % 2 == 0, 250.0, 150.0)
        m = hot_mask(_raster(board), 200.0)
        assert np.array_equal(m, (yy + xx) % 2 == 0)

    def test_invalid_pixels_never_hot(self):
        arr = np.array([[500.0, np.nan], [2500.0, 300.0]])
        m = hot_mask(ThermalRaster.from_array(arr), 200.0)
        assert m.tolist() == [[True, False], [False, True]]


class TestConnectedComponents:
    def test_diagonal_touch_is_one_component(self):
        mask = np.zeros((4, 4), bool)
        mask[1, 1] = mask[2, 2] = True
        comps = connected_components(mask)
        assert len(comps) == 1 and len(comps[0]) == 2

    def test_gap_column_separates(self):
        mask = np.zeros((3, 5), bool)
        mask[1, 1] = mask[1, 3] = True
        assert len(connected_components(mask)) == 2

    def test_plus_shape_single_component(self):
        mask = np.zeros((20, 20), bool)
        mask[5:15, 9:12] = True   # vertical bar, 30 px
        mask[9:12, 5:15] = True   # horizontal bar, 30 px; overlap 9 px
        comps = connected_components(mask)
        oracle = flood_fill_components(mask)
        assert len(comps) == len(oracle) == 1
        assert len(comps[0]) == len(oracle[0]) == 51

    def test_first_encounter_order(self):
        mask = np.zeros((5, 5), bool)
        mask[0, 4] = True  # component 0: encountered first in row 0
        mask[2, 0] = True  # component 1
        comps = connected_components(mask)
        assert comps[0].tolist() == [[0, 4]]
        assert comps[1].tolist() == [[2, 0]]

    def test_u_shape_merges_across_rows(self):
        # Two descending arms join at the bottom: one component, and labels
        # from both arms must union.
        mask = np.zeros((4, 5), bool)
        mask[0:3, 0] = True
        mask[0:3, 4] = True
        mask[3, :] = True
        comps = connected_components(mask)
        assert len(comps) == 1
        assert len(comps[0]) == 11

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((32, 32)) < rng.uniform(0.05, 0.8)
        comps = connected_components(mask)
        oracle = flood_fill_components(mask)
        assert len(comps) == len(oracle)
        for got, want in zip(comps, oracle):
            assert {(int(y), int(x)) for y, x in got} == want


def test_component_oracle_bulk_sweep():
    # Deterministic bulk comparison against the BFS oracle on random masks.
    rng = np.random.default_rng(20240901)
    for _ in range(400):
        mask = rng.random((32, 32)) < rng.uniform(0.05, 0.8)
        comps = connected_components(mask)
        oracle = flood_fill_components(mask)
        assert [len(c) for c in comps] == [len(c) for c in oracle]
        for got, want in zip(comps, oracle):
            assert {(int(y), int(x)) for y, x in got} == want


def _oracle_masks() -> dict[str, np.ndarray]:
    h, w = 512, 640
    rng = np.random.default_rng(20260418)
    embers = np.zeros(h * w, dtype=bool)
    embers[rng.choice(h * w, size=h * w // 100, replace=False)] = True
    stripes = np.zeros((h, w), dtype=bool)
    stripes[:, ::2] = True
    stripes[-1] = True
    snake = np.zeros((h, w), dtype=bool)  # one path up and down every other column
    snake[:, ::2] = True
    snake[0, 1::4] = True
    snake[-1, 3::4] = True
    return {
        "speckle-30": rng.random((h, w)) < 0.3,
        "speckle-50": rng.random((h, w)) < 0.5,
        "embers-1": embers.reshape(h, w),
        "stripes-joined-at-bottom": stripes,
        "column-snake": snake,
        "all-true": np.ones((h, w), dtype=bool),
    }


@st.composite
def _edge_masks(draw) -> np.ndarray:
    """Small masks whose first and last columns are drawn as they are, all set or all clear."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mask = np.array(draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)), dtype=bool).reshape(h, w)
    for col in (0, w - 1):
        edge = draw(st.sampled_from(["drawn", "set", "clear"]))
        if edge != "drawn":
            mask[:, col] = edge == "set"
    return mask


class TestLabel:
    @given(_edge_masks())
    @settings(max_examples=300, deadline=None)
    def test_matches_flood_fill_with_runs_on_the_edge_columns(self, mask):
        comp, n = _label(mask)
        oracle = flood_fill_components(mask)
        want = np.full(mask.shape, -1)
        for k, pixels in enumerate(oracle):
            for y, x in pixels:
                want[y, x] = k
        assert n == len(oracle)
        assert comp.tolist() == want[mask].tolist()  # boolean indexing is np.flatnonzero order

    @pytest.mark.parametrize("name", list(_oracle_masks()))
    def test_matches_scipy_scan_order_labels(self, name):
        ndimage = pytest.importorskip("scipy.ndimage")
        mask = _oracle_masks()[name]
        comp, n = _label(mask)
        labels, count = ndimage.label(mask, np.ones((3, 3)))
        assert n == count
        assert np.array_equal(comp, labels[mask] - 1)  # boolean indexing is np.flatnonzero order
        # Extraction's path: off the mask, every other pixel is hot but invalid.
        raster = _raster(np.where(mask, 300.0, np.resize([20.0, 2500.0], mask.shape)))
        pixels, run_comp, run_n = _hot_components(raster, 200.0)
        assert np.array_equal(pixels, np.flatnonzero(hot_mask(raster, 200.0)))
        assert run_n == n and np.array_equal(run_comp, comp)

    @pytest.mark.parametrize("shape", [(0, 7), (7, 0), (6, 9)])
    def test_no_foreground_gives_no_components(self, shape):
        comp, n = _label(np.zeros(shape, dtype=bool))
        assert n == 0 and comp.size == 0
        assert connected_components(np.zeros(shape, dtype=bool)) == []

    @pytest.mark.parametrize("arr", [np.full((6, 9), 25.0), np.full((6, 9), np.nan)], ids=["cold", "all-invalid"])
    def test_extract_on_empty_mask(self, arr):
        assert extract_hotspots(ThermalRaster.from_array(arr), 50.0) == NO_SPOTS

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 36),
        st.integers(1, 36),
        st.floats(2.0, 60.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_hotspot_fields_match_flood_fill_oracle(self, seed, h, w, agl):
        # Few temperature levels, so peaks tie within and across components.
        rng = np.random.default_rng(seed)
        arr = rng.choice([20.0, 210.0, 300.0, 450.0], size=(h, w), p=[0.5, 0.3, 0.1, 0.1])
        assert extract_hotspots(_raster(arr), agl, HotspotParams()) == _oracle_hotspots(arr, agl, HotspotParams())

    def test_extract_memory(self):
        # The padded labeling buffer and its row differences (0.31 MiB each) and
        # the per-pixel arrays; a separate hot mask and its flatnonzero pass read 0.99 MiB.
        temps = typical(0)
        rng = np.random.default_rng(1)
        temps.flat[rng.choice(temps.size, 40, replace=False)] = np.nan
        r = _raster(temps)
        tracemalloc.start()
        try:
            spots = extract_hotspots(r, 120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spots
        assert peak <= 0.75 * 2**20

    @pytest.mark.parametrize("agl", [12.0, 60.0], ids=["disks-kept", "speckle-kept"])
    def test_speckle_plateau_frame_matches_flood_fill_oracle(self, agl):
        # 30% speckle on two levels around disks clipped at one temperature, so
        # plateau peaks tie within every component; at the higher AGL many speckle
        # components pass the filters too.
        rng = np.random.default_rng(20261018)
        h, w = 96, 128
        arr = np.where(rng.random((h, w)) < 0.3, rng.choice([210.0, 250.0], size=(h, w)), 20.0)
        yy, xx = np.mgrid[0:h, 0:w]
        for cy, cx in ((20, 24), (70, 30), (30, 96), (75, 100)):
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            arr[d2 <= 81] = np.minimum(600.0 - 4.0 * d2[d2 <= 81], 450.0)
        spots = extract_hotspots(_raster(arr), agl, HotspotParams())
        assert spots == _oracle_hotspots(arr, agl, HotspotParams())
        assert len(spots) >= 4 and sum(s.peak_temp_c == 450.0 for s in spots) == 4


def _oracle_hotspots(arr: np.ndarray, agl: float, params: HotspotParams) -> HotspotTable:
    """Hotspots of ``arr`` from the flood-fill components, field by field."""
    g = gsd(agl, params.fov_diag_deg, arr.shape[1])
    expected = []
    for comp_id, comp in enumerate(flood_fill_components(hot_mask(_raster(arr), params.temp_threshold_c))):
        pixels = sorted(comp)  # row-major
        n = len(pixels)
        area = n * g * g
        radius = math.sqrt(area / math.pi)
        if radius < params.r_min_m or n < params.n_min_px:
            continue
        cy, cx = (float(c.mean()) for c in np.array(pixels, dtype=np.float64).T)
        temps = [float(arr[p]) for p in pixels]
        py, px = pixels[temps.index(max(temps))]  # first row-major maximum
        expected.append(
            Hotspot(
                id=comp_id,
                pixel_count=n,
                centroid_px=(cx, cy),
                centroid_m=(cx * g, cy * g),
                area_m2=area,
                radius_m=radius,
                peak_temp_c=max(temps),
                peak_px=(px, py),
            )
        )
    return table_from_rows(HotspotTable, expected)


def _bfs_components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Independent BFS oracle: component ids numbered from the smallest node up."""
    adjacent = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    ids = [-1] * n
    count = 0
    for start in range(n):
        if ids[start] < 0:
            ids[start] = count
            queue = deque([start])
            while queue:
                for v in adjacent[queue.popleft()]:
                    if ids[v] < 0:
                        ids[v] = count
                        queue.append(v)
            count += 1
    return ids


@st.composite
def _graphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """Up to 60 nodes; edges with self-loops, duplicates and reversed copies."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=80))
    edges += draw(st.lists(node.map(lambda v: (v, v)), max_size=4))
    repeated = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, edges + repeated + [(v, u) for u, v in repeated]


class TestComponents:
    @given(_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_bfs_oracle(self, graph):
        n, edges = graph
        a = np.array([u for u, _ in edges], dtype=np.intp)
        b = np.array([v for _, v in edges], dtype=np.intp)
        ids, count = components(n, a, b)
        assert ids.tolist() == _bfs_components(n, edges)
        assert count == len(set(ids.tolist()))
        # Ids increase with each component's smallest node.
        firsts = np.unique(ids, return_index=True)[1]
        assert np.array_equal(ids[firsts], np.arange(count)) and np.all(np.diff(firsts) > 0)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_no_edges_gives_singletons(self, n):
        ids, count = components(n, np.array([], dtype=np.intp), np.array([], dtype=np.intp))
        assert ids.tolist() == list(range(n)) and count == n


class TestGsd:
    def test_reference_values(self):
        # Frozen from a 50-digit mpmath evaluation of 2*100*tan(30.5 deg)/640.
        expected = 0.18407656763142221
        got = gsd(100.0, 61.0, 640)
        assert abs(got - expected) <= 1e-9 * expected

    def test_linearity_in_altitude(self):
        assert gsd(200.0, 61.0, 640) == pytest.approx(2 * gsd(100.0, 61.0, 640))

    def test_right_angle_fov(self):
        assert gsd(320.0, 90.0, 640) == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_altitude(self):
        with pytest.raises(ValueError):
            gsd(0.0, 61.0, 640)
        with pytest.raises(ValueError):
            gsd(-10.0, 61.0, 640)

    @pytest.mark.parametrize("fov", [0.0, -10.0, 180.0, 200.0, math.inf, math.nan])
    def test_fov_outside_0_180_rejected(self, fov):
        with pytest.raises(ValueError, match=r"FOV .* outside \(0, 180\)"):
            gsd(100.0, fov, 640)


class TestHotspotParams:
    @pytest.mark.parametrize("value", [0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("field", [f.name for f in fields(HotspotParams)])
    def test_non_positive_or_nan_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be strictly positive"):
            HotspotParams(**{field: value})

    @pytest.mark.parametrize("fov", [180.0, 200.0, math.inf])
    def test_fov_of_180_or_more_rejected(self, fov):
        with pytest.raises(ValueError, match=r"FOV .* outside \(0, 180\)"):
            HotspotParams(fov_diag_deg=fov)


def _blob_raster(size, coords, temp=450.0, background=25.0):
    arr = np.full(size, background)
    for y, x in coords:
        arr[y, x] = temp
    return _raster(arr)


class TestExtractHotspots:
    def test_pixel_count_filter(self):
        # 3 hot pixels at GSD 1: r = sqrt(3/pi) = 0.977 >= 0.75 but N < 5.
        r = _blob_raster((16, 16), [(5, 5), (5, 6), (5, 7)])
        g = gsd(1.0, 61.0, 16)
        agl = 16.0 / (2 * math.tan(math.radians(61.0) / 2))  # makes GSD exactly 1.0
        assert gsd(agl, 61.0, 16) == pytest.approx(1.0)
        assert extract_hotspots(r, agl) == NO_SPOTS
        assert g  # silence unused

    def test_radius_filter(self):
        # 5 hot pixels at GSD 0.2: A = 0.2 m^2, r = 0.252 < 0.75 despite N = 5.
        coords = [(5, x) for x in range(5, 10)]
        r = _blob_raster((32, 32), coords)
        agl = 0.2 * 32 / (2 * math.tan(math.radians(61.0) / 2))
        assert gsd(agl, 61.0, 32) == pytest.approx(0.2)
        assert extract_hotspots(r, agl) == NO_SPOTS

    def test_large_blob_kept(self):
        # 100-pixel blob at GSD 0.5: A = 25 m^2, r = 2.82 m.
        coords = [(y, x) for y in range(10, 20) for x in range(10, 20)]
        r = _blob_raster((64, 64), coords)
        agl = 0.5 * 64 / (2 * math.tan(math.radians(61.0) / 2))
        spots = extract_hotspots(r, agl)
        assert len(spots) == 1
        spot = spots[0]
        assert spot.pixel_count == 100
        assert spot.area_m2 == pytest.approx(25.0)
        assert spot.radius_m == pytest.approx(math.sqrt(25.0 / math.pi))
        assert spot.centroid_px == (14.5, 14.5)
        assert spot.peak_temp_c == 450.0

    def test_peak_tie_breaks_row_major(self):
        coords = [(y, x) for y in range(2, 7) for x in range(2, 7)]
        r = _blob_raster((32, 32), coords, temp=300.0)
        agl = 1.0 * 32 / (2 * math.tan(math.radians(61.0) / 2))
        spot = extract_hotspots(r, agl)[0]
        assert spot.peak_px == (2, 2)

    def test_transposition_equivariance(self):
        rng = np.random.default_rng(11)
        arr = np.full((48, 48), 20.0)
        arr[rng.random((48, 48)) < 0.15] = 350.0
        agl = 30.0
        a = extract_hotspots(_raster(arr), agl)
        b = extract_hotspots(_raster(arr.T), agl)
        assert sorted(s.pixel_count for s in a) == sorted(s.pixel_count for s in b)
        cents_a = sorted((round(s.centroid_px[0], 9), round(s.centroid_px[1], 9)) for s in a)
        cents_b = sorted((round(s.centroid_px[1], 9), round(s.centroid_px[0], 9)) for s in b)
        assert cents_a == cents_b

    def test_hotspot_pixels_all_hot_and_disjoint(self):
        rng = np.random.default_rng(3)
        arr = np.where(rng.random((40, 40)) < 0.3, 480.0, 30.0)
        r = _raster(arr)
        agl = 25.0
        params = HotspotParams()
        spots = extract_hotspots(r, agl, params)
        mask = hot_mask(r, params.temp_threshold_c)
        comps = connected_components(mask)
        seen = set()
        for s in spots:
            for y, x in comps[s.id]:
                assert arr[y, x] >= params.temp_threshold_c
                assert (y, x) not in seen
                seen.add((y, x))
        # Union of surviving components == pixels of kept ids exactly.
        survivor_union = {
            (int(y), int(x)) for s in spots for y, x in comps[s.id]
        }
        assert seen == survivor_union

    def test_radius_area_consistency_invariant(self):
        with pytest.raises(ValueError):
            Hotspot(
                id=0,
                pixel_count=10,
                centroid_px=(1.0, 1.0),
                centroid_m=(1.0, 1.0),
                area_m2=10.0,
                radius_m=5.0,  # inconsistent with area
                peak_temp_c=300.0,
                peak_px=(1, 1),
            )


def _row_fields(idx: int, pixel_count: int, area_m2: float, radius_m: float) -> dict:
    return dict(id=idx, pixel_count=pixel_count, centroid_px=(1.5, 2.5), centroid_m=(0.75, 1.25),
                area_m2=area_m2, radius_m=radius_m, peak_temp_c=300.0, peak_px=(1, 2))


def _raises_value_error(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


_GEOMETRY_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e200, -1.0])


@st.composite
def _geometry_rows(draw) -> list[dict]:
    """Up to four rows of pixel count, area and radius, consistent or not."""
    rows = []
    for idx in range(draw(st.integers(0, 4))):
        area = draw(_GEOMETRY_FLOATS | st.floats(1e-6, 1e6))
        radius = math.sqrt(area / math.pi) if area >= 0 and draw(st.booleans()) else draw(_GEOMETRY_FLOATS)
        rows.append(_row_fields(idx, draw(st.integers(-2, 10)), area, radius))
    return rows


class TestHotspotTable:
    def test_rows_columns_and_length(self):
        rows = [Hotspot(**_row_fields(k, 5 + k, math.pi * r * r, r)) for k, r in enumerate((0.5, 2.0, 3.0))]
        table = table_from_rows(HotspotTable, rows)
        assert len(table) == 3 and bool(table) and not NO_SPOTS and len(NO_SPOTS) == 0
        assert list(table) == rows and table[1] == rows[1] and table[-1] == rows[2]
        assert table.pixel_count.tolist() == [5, 6, 7] and table.centroid_px.tolist() == [[1.5, 2.5]] * 3
        assert table_from_rows(HotspotTable, table) == table
        with pytest.raises(IndexError):
            table[3]

    def test_columns_of_different_lengths_raise(self):
        columns = {name: column[:1] for name, column in vars(table_from_rows(HotspotTable,
            [Hotspot(**_row_fields(k, 5, math.pi, 1.0)) for k in range(2)])).items()}
        columns["peak_px"] = np.concatenate([columns["peak_px"], [[0, 0]]])
        with pytest.raises(ValueError, match="columns differ in length"):
            HotspotTable(**columns)

    @given(_geometry_rows())
    @settings(max_examples=300, deadline=None)
    def test_raises_if_and_only_if_a_row_raises(self, rows):
        rows_raise = any(_raises_value_error(lambda row=row: Hotspot(**row)) for row in rows)
        columns = {
            name: np.array([row[name] for row in rows], dtype=column.dtype).reshape(len(rows), *column.shape[1:])
            for name, column in vars(NO_SPOTS).items()
        }
        assert _raises_value_error(lambda: HotspotTable(**columns)) == rows_raise

    def test_columns_are_read_only(self):
        arr = np.full((40, 40), 25.0)
        arr[5:10, 5:10] = arr[20:30, 22:30] = 450.0
        table = extract_hotspots(_raster(arr), 10.0)
        assert len(table) == 2
        for column in vars(table).values():
            assert len(column) == len(table)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        with pytest.raises(AttributeError):
            table.id = np.arange(2)


class TestHottestLocation:
    def test_no_hotspots(self):
        assert hottest_location(_raster(np.full((9, 9), 25.0)), NO_SPOTS) == "No hotspots"

    def test_center_of_square(self):
        arr = np.full((600, 600), 25.0)
        arr[298:303, 298:303] = 400.0
        arr[300, 300] = 500.0
        r = _raster(arr)
        spots = extract_hotspots(r, 300.0)
        assert hottest_location(r, spots) == "Center"

    def test_top_left(self):
        arr = np.full((600, 600), 25.0)
        arr[8:13, 8:13] = 400.0
        arr[10, 10] = 500.0
        r = _raster(arr)
        spots = extract_hotspots(r, 300.0)
        assert hottest_location(r, spots) == "Top-left"

    def test_peak_outside_center_band(self):
        arr = np.full((90, 120), 25.0)
        arr[70:80, 100:110] = 450.0
        r = _raster(arr)
        spots = extract_hotspots(r, 60.0)
        assert hottest_location(r, spots) == "Bottom-right"

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force_argmax_over_kept_pixels(self, seed):
        # Few temperature levels, so the hottest pixel ties within and across components.
        rng = np.random.default_rng(seed)
        h, w = (int(n) for n in rng.integers(6, 40, size=2))
        arr = rng.choice([20.0, 210.0, 300.0, 450.0], size=(h, w), p=[0.55, 0.25, 0.1, 0.1])
        r = _raster(arr)
        params = HotspotParams()
        spots = extract_hotspots(r, 12.0, params)
        comps = connected_components(hot_mask(r, params.temp_threshold_c))
        kept = np.zeros(arr.shape, dtype=bool)
        for s in spots:
            kept[comps[s.id][:, 0], comps[s.id][:, 1]] = True
        if not spots:
            expected = "No hotspots"
        else:
            # np.argmax returns the first row-major maximum.
            y, x = np.unravel_index(np.argmax(np.where(kept, arr, -np.inf)), arr.shape)
            expected = locate_pixel(int(x), int(y), w, h)
        assert hottest_location(r, spots, params) == expected

    @pytest.mark.parametrize(
        "x,y,expected",
        [
            (300, 300, "Center"),
            (200, 200, "Center"),      # exactly W/3, H/3: inclusive lower edge
            (400, 200, "Top-right"),   # exactly 2W/3: excluded from center
            (0, 0, "Top-left"),
            (599, 0, "Top-right"),
            (0, 599, "Bottom-left"),
            (599, 599, "Bottom-right"),
            (300, 100, "Top-right"),   # x exactly on the midline goes right
            (100, 300, "Bottom-left"), # y exactly on the midline goes bottom
        ],
    )
    def test_region_rule(self, x, y, expected):
        assert locate_pixel(x, y, 600, 600) == expected
