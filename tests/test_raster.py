from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firescene.raster import (
    EmptyRasterError,
    ThermalRaster,
    coverage_fraction,
    summarize,
)


def _raster(arr) -> ThermalRaster:
    return ThermalRaster.from_array(np.asarray(arr, dtype=np.float64))


class TestThermalRaster:
    def test_shape_and_coordinates(self):
        r = _raster([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (r.width, r.height) == (3, 2)
        # (x, y) convention: temps[y, x]
        assert r.temps[1, 2] == 6.0

    def test_out_of_range_pixels_marked_invalid_not_clamped(self):
        r = _raster([[25.0, 2500.0], [-150.0, np.nan]])
        assert r.valid_mask.tolist() == [[True, False], [False, False]]
        assert r.temps[0, 1] == 2500.0  # raw value preserved

    def test_immutable(self):
        r = _raster([[25.0]])
        with pytest.raises(ValueError):
            r.temps[0, 0] = 30.0

    @pytest.mark.parametrize(
        "raw, scale, valid",
        [
            # float32 0x7FABB961 is a signalling NaN, whose cast to float64 flags "invalid".
            (np.frombuffer(bytes.fromhex("61b9ab7f") + np.float32(250.0).tobytes(), dtype="<f4"), None, True),
            (np.array([np.inf, 250.0]), 0.0, True),  # inf * 0 is NaN, 250 * 0 is a valid 0 C
            (np.array([1e300, 250.0]), 1e300, False),  # overflow to inf; 2.5e302 C is out of range
        ],
        ids=["signalling-nan", "inf-times-zero", "overflow"],
    )
    def test_non_finite_samples_masked_without_warning(self, raw, scale, valid):
        r = ThermalRaster.from_samples(raw.reshape(1, 2), None, scale, None)
        assert r.valid_mask.tolist() == [[False, valid]]

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ThermalRaster(width=0, height=1, temps=np.zeros((1, 0)), valid_mask=np.zeros((1, 0), bool))


class TestSummarize:
    def test_seven_hot_pixels_in_hundred(self):
        # Exhaustive-count oracle: 7 of 100 pixels at 250 C.
        arr = np.full((10, 10), 20.0)
        arr.flat[:7] = 250.0
        oracle_200 = 100.0 * sum(1 for v in arr.flat if v >= 200.0) / arr.size
        oracle_400 = 100.0 * sum(1 for v in arr.flat if v >= 400.0) / arr.size
        assert (oracle_200, oracle_400) == (7.0, 0.0)
        s = summarize(_raster(arr))
        assert s.pct_above_200 == 7.0
        assert s.pct_above_400 == 0.0

    def test_constant_field(self):
        s = summarize(_raster(np.full((4, 5), 25.0)))
        assert (s.min_c, s.max_c, s.mean_c, s.std_c) == (25.0, 25.0, 25.0, 0.0)
        assert s.pct_above_200 == 0.0

    def test_two_point_arithmetic(self):
        s = summarize(_raster([[100.0, 300.0]]))
        assert (s.min_c, s.max_c, s.mean_c) == (100.0, 300.0, 200.0)
        assert s.std_c == 100.0  # population std of {100, 300}

    def test_population_std(self):
        vals = [10.0, 20.0, 30.0, 40.0]
        s = summarize(_raster([vals]))
        mean = sum(vals) / 4
        assert s.std_c == pytest.approx((sum((v - mean) ** 2 for v in vals) / 4) ** 0.5)

    def test_ignores_invalid_pixels(self):
        arr = np.array([[25.0, -9999.0, 35.0]])
        r = ThermalRaster.from_array(arr)
        s = summarize(r)
        assert (s.min_c, s.max_c, s.mean_c) == (25.0, 35.0, 30.0)

    def test_empty_raster_errors(self):
        r = ThermalRaster.from_array(np.full((2, 2), np.nan))
        with pytest.raises(EmptyRasterError):
            summarize(r)
        with pytest.raises(EmptyRasterError):
            coverage_fraction(r, 200.0)


class TestCoverageFraction:
    def test_exhaustive_count_fixture(self):
        # 640x512 with exactly 3277 pixels >= 400 C.
        arr = np.full((512, 640), 25.0)
        arr.flat[:3277] = 450.0
        oracle = 100.0 * int((arr >= 400.0).sum()) / arr.size
        p = coverage_fraction(_raster(arr), 400.0)
        assert p == oracle
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_all_below(self):
        assert coverage_fraction(_raster(np.full((3, 3), 20.0)), 200.0) == 0.0

    def test_inclusive_threshold(self):
        assert coverage_fraction(_raster(np.full((3, 3), 200.0)), 200.0) == 100.0

    def test_matches_summary_bit_for_bit(self):
        rng = np.random.default_rng(7)
        arr = rng.uniform(-50, 900, size=(37, 23))
        r = _raster(arr)
        s = summarize(r)
        assert s.pct_above_200 == coverage_fraction(r, 200.0)
        assert s.pct_above_400 == coverage_fraction(r, 400.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.uniform(-100, 1200, size=(16, 16))
        r = _raster(arr)
        taus = sorted(rng.uniform(-100, 1300, size=8))
        fractions = [coverage_fraction(r, t) for t in taus]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
