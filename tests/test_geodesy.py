from __future__ import annotations

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exifutil import build_gps_jpeg
from factories import corrupted
from firescene.geodesy import (
    SRTM_VOID,
    DemTile,
    DemTileSet,
    DemVoidError,
    ExifError,
    FrameMeta,
    GeodesyError,
    GeoidGrid,
    OutsideCoverageError,
    agl,
    dem_elevation,
    geoid_undulation,
    parse_exif_gps,
)
from firescene.labeler import bin_agl


def _grid(values, origin=(34.0, -119.0), spacing=0.5) -> GeoidGrid:
    return GeoidGrid(
        origin_lat=origin[0],
        origin_lon=origin[1],
        spacing_deg=spacing,
        values=np.asarray(values, dtype=np.float64),
    )


_GRID_DOC = {
    "origin_lat": 34.0,
    "origin_lon": -119.0,
    "spacing_deg": 0.25,
    "nrows": 2,
    "ncols": 2,
    "values": [1.0, 2.0, 3.0, 4.0],
}


# Points with a NaN or infinite coordinate, next to one covered by both ``flat_world`` lookups.
_NON_FINITE_POINTS = [(math.nan, -118.5), (34.5, math.nan), (math.inf, -118.5), (-math.inf, -118.5),
                      (34.5, math.inf), (34.5, -math.inf)]


def _flat_tile_bytes(n: int, elevation: int) -> bytes:
    return np.full((n, n), elevation, dtype=">i2").tobytes()


@pytest.fixture(scope="module")
def flat_world(tmp_path_factory):
    """N34W119 tile at a constant 120 m plus a -30 m geoid grid."""
    d = tmp_path_factory.mktemp("dem")
    (d / "N34W119.hgt").write_bytes(_flat_tile_bytes(1201, 120))
    geoid = _grid(np.full((5, 5), -30.0), origin=(33.0, -120.0), spacing=1.0)
    return geoid, DemTileSet(d)


class TestFrameMeta:
    def test_invariants(self):
        with pytest.raises(ValueError):
            FrameMeta(lat=91.0, lon=0.0, alt_ellipsoidal_m=0.0)
        with pytest.raises(ValueError):
            FrameMeta(lat=0.0, lon=180.0, alt_ellipsoidal_m=0.0)
        with pytest.raises(ValueError):
            FrameMeta(lat=0.0, lon=0.0, alt_ellipsoidal_m=0.0, fov_diag_deg=180.0)

    @pytest.mark.parametrize("alt", [math.nan, math.inf, -math.inf])
    def test_non_finite_altitude_rejected(self, alt):
        # Accepted, it made agl return NaN or an infinity.
        with pytest.raises(ValueError, match="altitude"):
            FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=alt)

    def test_defaults(self):
        m = FrameMeta(lat=34.2, lon=-118.5, alt_ellipsoidal_m=250.0)
        assert m.fov_diag_deg == 61.0


class TestExifGps:
    def test_dms_conversion(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(lat_dms=(34.0, 12.0, 36.0), lat_ref="N"))
        meta = parse_exif_gps(p)
        assert meta.lat == pytest.approx(34 + 12 / 60 + 36 / 3600, abs=1e-9)
        assert meta.lat == pytest.approx(34.21, abs=1e-9)
        assert meta.lon == pytest.approx(-(118 + 30 / 60), abs=1e-9)

    def test_altitude_ref_below(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(alt=50.0, alt_ref=1))
        assert parse_exif_gps(p).alt_ellipsoidal_m == pytest.approx(-50.0)

    def test_southern_western_hemisphere(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(lat_dms=(12.0, 0.0, 0.0), lat_ref="S"))
        assert parse_exif_gps(p).lat == pytest.approx(-12.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lat_ref": "W"}, {"lat_ref": ""}, {"lat_ref": "n"}, {"lon_ref": "S"}, {"lon_ref": ""}, {"lon_ref": "w"}],
        ids=["lat-W", "lat-empty", "lat-lowercase", "lon-S", "lon-empty", "lon-lowercase"],
    )
    def test_reference_must_name_its_axis(self, tmp_path, kwargs):
        # A ref of the other axis, an empty one or a lowercase one is not read as a hemisphere.
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(**kwargs))
        with pytest.raises(ExifError, match="GPS reference"):
            parse_exif_gps(p)

    def test_missing_gps_ifd(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(include_gps_ifd=False))
        with pytest.raises(ExifError, match="no GPS metadata"):
            parse_exif_gps(p)

    def test_missing_app1(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(b"\xff\xd8\xff\xd9")
        with pytest.raises(ExifError, match="no APP1"):
            parse_exif_gps(p)

    def test_zero_denominator(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(zero_denominator=True))
        with pytest.raises(ExifError, match="zero-denominator"):
            parse_exif_gps(p)

    def test_big_endian_exif(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(endian="big"))
        assert parse_exif_gps(p).lat == pytest.approx(34.21, abs=1e-9)

    def test_not_a_jpeg(self, tmp_path):
        p = tmp_path / "f.jpg"
        p.write_bytes(b"GIF89a")
        with pytest.raises(ExifError, match="not a JPEG"):
            parse_exif_gps(p)

    @pytest.mark.parametrize(
        "kwargs",
        [{"lat_dms": (95.0, 0.0, 0.0)}, {"lon_dms": (180.0, 0.0, 0.0), "lon_ref": "E"}],
        ids=["lat-95N", "lon-180E"],
    )
    def test_out_of_range_position(self, tmp_path, kwargs):
        p = tmp_path / "f.jpg"
        p.write_bytes(build_gps_jpeg(**kwargs))
        with pytest.raises(ExifError, match="outside"):
            parse_exif_gps(p)

    def test_non_integer_gps_pointer(self, tmp_path):
        blob = bytearray(build_gps_jpeg())
        # The TIFF block starts at byte 12 and IFD0's one entry, the GPS
        # pointer, 10 bytes into it; the entry's bytes 2-3 hold its field
        # type. Retype it from LONG to RATIONAL.
        struct.pack_into("<H", blob, 12 + 10 + 2, 5)
        p = tmp_path / "f.jpg"
        p.write_bytes(bytes(blob))
        with pytest.raises(ExifError, match="non-integer"):
            parse_exif_gps(p)

    @pytest.mark.parametrize("endian", ["little", "big"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupt_jpeg_raises_only_exif_error(self, tmp_path_factory, endian, data):
        p = tmp_path_factory.getbasetemp() / "fuzz.jpg"
        p.write_bytes(data.draw(corrupted(build_gps_jpeg(endian=endian))))
        try:
            parse_exif_gps(p)
        except ExifError:
            pass


class TestGeoidUndulation:
    def test_node_exact(self):
        g = _grid([[1.0, 2.0], [3.0, 4.0]])
        assert geoid_undulation(g, 34.0, -119.0) == 1.0
        assert geoid_undulation(g, 34.5, -118.5) == 4.0

    def test_cell_center_by_hand(self):
        # South row nodes 0,0; north row nodes 10,10; center -> 5.0.
        g = _grid([[0.0, 0.0], [10.0, 10.0]])
        assert geoid_undulation(g, 34.25, -118.75) == pytest.approx(5.0)

    def test_constant_grid(self):
        g = _grid(np.full((4, 4), -30.0))
        assert geoid_undulation(g, 34.7, -118.3) == pytest.approx(-30.0)

    def test_outside_coverage(self):
        g = _grid([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(OutsideCoverageError):
            geoid_undulation(g, 36.0, -119.0)

    @pytest.mark.parametrize("lat, lon", _NON_FINITE_POINTS)
    def test_non_finite_point_outside_coverage(self, flat_world, lat, lon):
        geoid, _ = flat_world
        assert geoid_undulation(geoid, 34.5, -118.5) == -30.0
        with pytest.raises(OutsideCoverageError):
            geoid_undulation(geoid, lat, lon)

    def test_from_json_inline_values(self, tmp_path):
        p = tmp_path / "geoid.json"
        p.write_text(json.dumps(_GRID_DOC))
        g = GeoidGrid.from_json(p)
        assert geoid_undulation(g, 34.0, -118.75) == 2.0
        assert geoid_undulation(g, 34.25, -119.0) == 3.0

    def test_from_json_reads_no_file_the_document_names(self, tmp_path):
        # Without inline values the document is malformed, whatever file its keys
        # name: the 8 MiB file next to it is never read.
        (tmp_path / "geoid.bin").write_bytes(np.zeros(1 << 21, dtype="<f4").tobytes())
        doc = {k: v for k, v in _GRID_DOC.items() if k != "values"}
        p = tmp_path / "geoid.json"
        p.write_text(json.dumps(doc | {"nrows": 1024, "ncols": 2048, "data": "geoid.bin", "endian": "little"}))
        tracemalloc.start()
        try:
            with pytest.raises(GeodesyError, match="malformed geoid grid"):
                GeoidGrid.from_json(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "text",
        [
            '{"origin_lat": 34.0, "nrows": 2, "nc',
            '{"origin_lat": 0, "origin_lon": 0, "nrows": 2, "ncols": 2, "values": [1, 2, 3, 4]}',
            "[1, 2, 3, 4]",
            json.dumps({**_GRID_DOC, "values": [1.0, 2.0, 3.0]}),
            json.dumps({**_GRID_DOC, "spacing_deg": 0.0}),
            json.dumps({**_GRID_DOC, "spacing_deg": math.nan}),
            json.dumps({**_GRID_DOC, "origin_lat": math.nan}),
            json.dumps({**_GRID_DOC, "nrows": -1}),
            json.dumps({**_GRID_DOC, "values": [1.0, math.nan, 3.0, 4.0]}),
        ],
        ids=[
            "truncated",
            "no-spacing",
            "array",
            "short-values",
            "zero-spacing",
            "nan-spacing",
            "nan-origin",
            "negative-rows",
            "nan-value",
        ],
    )
    def test_from_json_malformed_raises_geodesy_error(self, tmp_path, text):
        p = tmp_path / "geoid.json"
        p.write_text(text)
        with pytest.raises(GeodesyError, match="geoid grid"):
            GeoidGrid.from_json(p)

    def test_from_json_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            GeoidGrid.from_json(tmp_path / "absent.json")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_corrupt_grid_raises_only_geodesy_error(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz-geoid.json"
        p.write_bytes(data.draw(corrupted(json.dumps(_GRID_DOC).encode())))
        try:
            GeoidGrid.from_json(p)
        except GeodesyError:
            pass

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bilinear_bounded_by_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-60, 60, size=(3, 3))
        g = _grid(vals, origin=(0.0, 0.0), spacing=1.0)
        lat, lon = rng.uniform(0, 2), rng.uniform(0, 2)
        n = geoid_undulation(g, lat, lon)
        iy, ix = min(int(lat), 1), min(int(lon), 1)
        quad = vals[iy : iy + 2, ix : ix + 2]
        assert quad.min() - 1e-12 <= n <= quad.max() + 1e-12


class TestDemElevation:
    def test_flat_tile(self, flat_world):
        _, dem = flat_world
        assert dem_elevation(dem, 34.5, -118.5) == pytest.approx(120.0)

    def test_node_exact(self, tmp_path):
        grid = np.zeros((1201, 1201), dtype=">i2")
        grid[0, 0] = 1500  # north-west corner of the tile
        grid[1200, 1200] = 700  # south-east corner
        (tmp_path / "N34W119.hgt").write_bytes(grid.tobytes())
        dem = DemTileSet(tmp_path)
        assert dem_elevation(dem, 35.0, -119.0) == 1500.0
        assert dem_elevation(dem, 34.0, -118.0 - 1e-12) == pytest.approx(700.0, abs=1.0)

    def test_void_neighbor(self, tmp_path):
        grid = np.full((1201, 1201), 100, dtype=">i2")
        grid[600, 600] = SRTM_VOID
        (tmp_path / "N34W119.hgt").write_bytes(grid.tobytes())
        dem = DemTileSet(tmp_path)
        with pytest.raises(DemVoidError, match="DEM void"):
            dem_elevation(dem, 34.5, -118.5)

    @pytest.mark.parametrize("lat, lon", _NON_FINITE_POINTS)
    def test_non_finite_point_outside_coverage(self, flat_world, lat, lon):
        _, dem = flat_world
        assert dem_elevation(dem, 34.5, -118.5) == 120.0
        with pytest.raises(OutsideCoverageError):
            dem_elevation(dem, lat, lon)

    def test_missing_tile(self, flat_world):
        _, dem = flat_world
        with pytest.raises(OutsideCoverageError, match="missing DEM tile"):
            dem_elevation(dem, 51.0, 7.0)

    # (lat, lon, primary tile, south/west tile): a longitude boundary, and a
    # corner where both coordinates are integers.
    BOUNDARIES = [(34.5, -118.0, "N34W118", "N34W119"), (35.0, -118.0, "N35W118", "N34W119")]

    @pytest.mark.parametrize("lat, lon, primary, south_west", BOUNDARIES, ids=["lon-edge", "corner"])
    def test_boundary_uses_south_west_tile_alone(self, tmp_path, lat, lon, primary, south_west):
        (tmp_path / f"{south_west}.hgt").write_bytes(_flat_tile_bytes(1201, 120))
        assert dem_elevation(DemTileSet(tmp_path), lat, lon) == 120.0

    @pytest.mark.parametrize("lat, lon, primary, south_west", BOUNDARIES, ids=["lon-edge", "corner"])
    def test_boundary_prefers_primary_tile(self, tmp_path, lat, lon, primary, south_west):
        (tmp_path / f"{south_west}.hgt").write_bytes(_flat_tile_bytes(1201, 120))
        (tmp_path / f"{primary}.hgt").write_bytes(_flat_tile_bytes(1201, 300))
        assert dem_elevation(DemTileSet(tmp_path), lat, lon) == 300.0

    @pytest.mark.parametrize("lat, lon, primary, south_west", BOUNDARIES, ids=["lon-edge", "corner"])
    def test_boundary_miss_names_primary_then_finds_later_tile(self, tmp_path, lat, lon, primary, south_west):
        dem = DemTileSet(tmp_path)
        with pytest.raises(OutsideCoverageError, match=f"missing DEM tile {primary}.hgt"):
            dem_elevation(dem, lat, lon)
        (tmp_path / f"{south_west}.hgt").write_bytes(_flat_tile_bytes(1201, 120))
        assert dem_elevation(dem, lat, lon) == 120.0

    def test_bad_tile_size(self, tmp_path):
        (tmp_path / "N10E010.hgt").write_bytes(b"\0" * 100)
        with pytest.raises(GeodesyError, match="unexpected size"):
            DemTile.from_hgt(tmp_path / "N10E010.hgt")

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_corrupt_tile_raises_only_geodesy_error(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "N34W119.hgt"
        p.write_bytes(data.draw(corrupted(_flat_tile_bytes(1201, 120))))
        try:
            DemTile.from_hgt(p)
        except GeodesyError:
            pass

    def test_southern_western_anchor_parse(self, tmp_path):
        (tmp_path / "S05W072.hgt").write_bytes(_flat_tile_bytes(1201, 42))
        t = DemTile.from_hgt(tmp_path / "S05W072.hgt")
        assert (t.anchor_lat, t.anchor_lon) == (-5, -72)


class TestAgl:
    def test_three_term_arithmetic(self, flat_world):
        geoid, dem = flat_world
        meta = FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=200.0)
        assert agl(meta, geoid, dem) == pytest.approx(110.0)

    def test_identity_case(self, flat_world):
        geoid, dem = flat_world
        meta = FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=90.0)  # -30 + 120
        assert agl(meta, geoid, dem) == pytest.approx(0.0)

    def test_second_hand_case(self, tmp_path):
        (tmp_path / "N34W119.hgt").write_bytes(_flat_tile_bytes(1201, 300))
        dem = DemTileSet(tmp_path)
        geoid = _grid(np.full((3, 3), 20.0), origin=(33.0, -120.0), spacing=1.0)
        meta = FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=500.0)
        assert agl(meta, geoid, dem) == pytest.approx(180.0)

    def test_negative_agl_reported(self, flat_world):
        geoid, dem = flat_world
        meta = FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=0.0)
        assert agl(meta, geoid, dem) == pytest.approx(-90.0)

    @given(st.floats(-500, 500, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, shift):
        # Adding c to the UAV altitude and to the terrain leaves AGL unchanged.
        geoid = _grid(np.full((3, 3), -30.0), origin=(33.0, -120.0), spacing=1.0)
        base = (200.0 - (-30.0)) - 120.0
        shifted = ((200.0 + shift) - (-30.0)) - (120.0 + shift)
        assert shifted == pytest.approx(base, abs=1e-9)
        assert geoid is not None


class TestAltitudeBin:
    """FP2 binning of an AGL, which ``labeler`` does from the AGL this module computes."""

    @pytest.mark.parametrize(
        "value,label",
        [
            (110.0, "100–150 m"),
            (50.0, "50–100 m"),
            (2000.0, ">150 m"),
            (0.0, "0–50 m"),
            (49.999, "0–50 m"),
            (100.0, "100–150 m"),
            (150.0, ">150 m"),
        ],
    )
    def test_bins(self, value, label):
        assert bin_agl(value) == label

    def test_negative_is_suspect(self):
        # The lowest bin; answer_sheet's suspect note is checked by test_fp2_without_positive_agl.
        assert bin_agl(-5.0) == "0–50 m"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bin_agl(math.nan)
        with pytest.raises(ValueError):
            bin_agl(math.inf)

    @given(st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b):
        order = ["0–50 m", "50–100 m", "100–150 m", ">150 m"]
        lo, hi = min(a, b), max(a, b)
        assert order.index(bin_agl(lo)) <= order.index(bin_agl(hi))
