from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import corrupted
from firescene.raster import (
    EmptyRasterError,
    RasterFormatError,
    ThermalRaster,
    coverage_fraction,
    load_raw_raster,
    summarize,
    write_raw_raster,
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


class TestRawFixtureFormat:
    def test_direct_read_back(self, tmp_path):
        blob = np.array([0.0, 100.0, 200.0, 400.0], dtype="<f4").tobytes()
        (tmp_path / "t.bin").write_bytes(blob)
        header = {"width": 2, "height": 2, "dtype": "float32", "endian": "little"}
        r = load_raw_raster(header, tmp_path / "t.bin")
        assert r.temps.max() == 400.0

    def test_length_mismatch(self, tmp_path):
        (tmp_path / "t.bin").write_bytes(np.zeros(8, dtype="<f4").tobytes())
        header = {"width": 3, "height": 3, "dtype": "float32", "endian": "little"}
        with pytest.raises(RasterFormatError, match="length mismatch"):
            load_raw_raster(header, tmp_path / "t.bin")

    def test_unknown_element_type(self, tmp_path):
        (tmp_path / "t.bin").write_bytes(b"\0" * 8)
        with pytest.raises(RasterFormatError, match="unknown element type"):
            load_raw_raster({"width": 2, "height": 1, "dtype": "complex64"}, tmp_path / "t.bin")

    @pytest.mark.parametrize("dtype, code", [("float32", "f4"), ("float64", "f8"), ("uint16", "u2"), ("int16", "i2")])
    @pytest.mark.parametrize("endian, prefix", [("little", "<"), ("big", ">")])
    def test_writer_and_reader_share_the_layout(self, tmp_path, dtype, code, endian, prefix):
        arr = np.array([[25.0, 300.0]])
        sidecar, blob = write_raw_raster(
            ThermalRaster.from_array(arr), tmp_path / "t.json", dtype=dtype, endian=endian, nodata=0.0
        )
        assert blob.read_bytes() == arr.astype(prefix + code).tobytes()
        assert load_raw_raster(sidecar).temps.tolist() == arr.tolist()

    @pytest.mark.parametrize(
        "dtype, endian, match",
        [("complex64", "little", "unknown element type"), ("float32", "middle", "unknown endianness")],
    )
    def test_writer_and_reader_reject_the_same_types(self, tmp_path, dtype, endian, match):
        (tmp_path / "t.bin").write_bytes(b"\0" * 8)
        with pytest.raises(RasterFormatError, match=match):
            load_raw_raster({"width": 1, "height": 1, "dtype": dtype, "endian": endian}, tmp_path / "t.bin")
        with pytest.raises(RasterFormatError, match=match):
            write_raw_raster(_raster([[25.0]]), tmp_path / "w.json", dtype=dtype, endian=endian)
        assert not (tmp_path / "w.bin").exists()

    def test_nodata_pixel_invalid(self, tmp_path):
        blob = np.array([25.0, -9999.0, 30.0, 35.0], dtype="<f4").tobytes()
        (tmp_path / "t.bin").write_bytes(blob)
        header = {"width": 2, "height": 2, "dtype": "float32", "endian": "little", "nodata": -9999.0}
        r = load_raw_raster(header, tmp_path / "t.bin")
        assert r.valid_count == 3
        s = summarize(r)
        assert s.mean_c == pytest.approx(30.0)

    def test_sidecar_file_with_relative_data(self, tmp_path):
        arr = np.array([[12.5, 300.25]], dtype=np.float64)
        sidecar, _ = write_raw_raster(ThermalRaster.from_array(arr), tmp_path / "scene.json")
        parsed = json.loads(sidecar.read_text())
        assert parsed["data"] == "scene.bin"
        r = load_raw_raster(sidecar)
        assert r.temps.tolist() == arr.tolist()

    def test_uint16_scale_offset(self, tmp_path):
        blob = np.array([11829, 0], dtype="<u2").tobytes()
        (tmp_path / "t.bin").write_bytes(blob)
        header = {
            "width": 2,
            "height": 1,
            "dtype": "uint16",
            "endian": "little",
            "scale": 0.04,
            "offset": -273.15,
        }
        r = load_raw_raster(header, tmp_path / "t.bin")
        assert r.temps[0, 0] == 11829 * 0.04 - 273.15
        assert r.temps[0, 0] == pytest.approx(200.01, abs=1e-9)

    @pytest.mark.parametrize(
        "header",
        [
            {"height": 1, "dtype": "float32"},
            {"width": "x", "height": 1, "dtype": "float32"},
            {"width": 2, "height": 1, "dtype": "float32", "nodata": "abc"},
            {"width": 2, "height": 1, "dtype": "float32", "nodata": [1.0, 2.0]},
            {"width": 2, "height": 1, "dtype": "float32", "scale": [2.0]},
            {"width": -2, "height": -1, "dtype": "float32"},
            [2, 1, "float32"],
        ],
        ids=["no-width", "text-width", "text-nodata", "list-nodata", "list-scale", "negative", "array"],
    )
    def test_malformed_sidecar_raises_format_error(self, tmp_path, header):
        (tmp_path / "t.bin").write_bytes(b"\0" * 8)
        sidecar = tmp_path / "t.json"
        sidecar.write_text(json.dumps(header))
        with pytest.raises(RasterFormatError):
            load_raw_raster(sidecar, tmp_path / "t.bin")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupt_sidecar_raises_only_format_error(self, tmp_path_factory, data):
        sidecar = tmp_path_factory.getbasetemp() / "fuzz.json"
        write_raw_raster(_raster([[12.5, 300.25, np.nan], [0.0, 1.0, 2.0]]), sidecar)
        sidecar.write_bytes(data.draw(corrupted(sidecar.read_bytes())))
        try:
            load_raw_raster(sidecar)
        except RasterFormatError:
            pass
        except FileNotFoundError:
            # A flipped byte in the data file's name names a file that is not there.
            assert json.loads(sidecar.read_text())["data"] != "fuzz.bin"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_write_load_round_trip_identity(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        arr = rng.uniform(-100, 2000, size=(rng.integers(1, 9), rng.integers(1, 9)))
        arr[rng.random(arr.shape) < 0.2] = np.nan  # some invalid pixels
        r = ThermalRaster.from_array(arr)
        out = tmp_path_factory.mktemp("rt") / "r.json"
        write_raw_raster(r, out)
        back = load_raw_raster(out)
        assert np.array_equal(back.valid_mask, r.valid_mask)
        assert np.array_equal(back.temps[back.valid_mask], r.temps[r.valid_mask])
