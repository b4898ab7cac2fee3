from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import make_hotspot, table_from_rows
from imagefix import noise_image, rigid_points, synthetic_texture, warp_rigid
from firescene.features import (
    GrayImage,
    MatchConfig,
    MatchResult,
    PATTERN,
    PATTERN_SEED,
    describe,
    detect,
    hamming_matrix,
    match,
    match_images,
    ransac_homography,
)
from firescene.features import pipeline, ransac
from firescene.features.brief_pattern import N_PAIRS, PATCH_RADIUS
from firescene.features.describe import ANGLE_BINS, DESCRIPTOR_BITS, _ROTATED
from firescene.features.detect import (
    BORDER_MARGIN,
    CIRCLE,
    FAST_ARC,
    HARRIS_K,
    HARRIS_WINDOW,
    ORIENTATION_RADIUS,
    ImageTooSmallError,
    Keypoint,
    KeypointTable,
    _HALO,
    _HARRIS_SUM_BOUND,
    _Bands,
    _moments,
    _segment_test,
)
from firescene.features.matching import _BLOCK_ROWS
from firescene.features.ransac import DegenerateSamplesError, RansacError
from firescene.hotspots import HotspotTable

# The package exports the describe and detect functions under their modules' names.
describe_module = importlib.import_module("firescene.features.describe")
detect_module = importlib.import_module("firescene.features.detect")


def hamming_distance(a, b):
    """Oracle: Hamming distance between two packed descriptors."""
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def generate_pattern(seed):
    """Oracle: regenerate the sampling table; must reproduce PATTERN for PATTERN_SEED."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw_point():
        while True:
            x, y = rng.normal(0.0, PATCH_RADIUS / 2.5, size=2)
            xi, yi = int(round(x)), int(round(y))
            if xi * xi + yi * yi <= PATCH_RADIUS * PATCH_RADIUS:
                return xi, yi

    pairs = []
    while len(pairs) < N_PAIRS:
        p = draw_point()
        q = draw_point()
        while q == p:
            q = draw_point()
        pairs.append((p[0], p[1], q[0], q[1]))
    return np.array(pairs, dtype=np.int8)


def _intensity_centroid_angle(img, y, x):
    """One keypoint's angle through the batched moments, as detect takes it."""
    [[m10, m01]] = _moments(img, np.array([y]), np.array([x])).tolist()
    return math.atan2(m01, m10)


class TestGrayImage:
    def test_from_rgb_luma(self):
        rgb = np.random.default_rng(4).integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
        r, g, b = (rgb[..., i].astype(np.int64) for i in range(3))
        # integer BT.601
        assert np.array_equal(GrayImage.from_rgb(rgb).pixels, (77 * r + 150 * g + 29 * b + 128) >> 8)
        assert GrayImage.from_rgb(np.full((1, 1, 3), 255)).pixels[0, 0] == 255

    @pytest.mark.parametrize("value", [300, -1, 0.6, np.nan], ids=["300", "-1", "0.6", "nan"])
    def test_values_outside_uint8_rejected(self, value):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            GrayImage.from_array(np.full((2, 2), value))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            GrayImage.from_rgb(np.full((2, 2, 3), value))


    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_from_array_keeps_a_private_copy(self, dtype):
        arr = np.zeros((40, 40), dtype=dtype)
        img = GrayImage.from_array(arr)
        assert arr.flags.writeable
        arr[0, 0] = 200
        assert img.pixels[0, 0] == 0
        assert not img.pixels.flags.writeable


class TestPattern:
    def test_frozen_table_matches_generator(self):
        assert np.array_equal(PATTERN, generate_pattern(PATTERN_SEED))

    def test_pattern_geometry(self):
        assert PATTERN.shape == (256, 4)
        for x1, y1, x2, y2 in PATTERN.tolist():
            assert x1 * x1 + y1 * y1 <= 15 * 15
            assert x2 * x2 + y2 * y2 <= 15 * 15
            assert (x1, y1) != (x2, y2)


class TestDetect:
    def test_uniform_image_no_keypoints(self):
        img = GrayImage.from_array(np.full((64, 64), 90, dtype=np.uint8))
        assert len(detect(img)) == 0

    def test_too_small_image(self):
        img = GrayImage.from_array(np.zeros((16, 16), dtype=np.uint8))
        with pytest.raises(ImageTooSmallError):
            detect(img)

    def test_bright_square_corners(self):
        arr = np.zeros((64, 64), dtype=np.uint8)
        arr[30:33, 30:33] = 255  # 3x3 bright square well inside the margin
        img = GrayImage.from_array(arr)
        kps = detect(img)
        assert kps, "expected corners on a high-contrast square"
        for kp in kps:
            assert abs(kp.x - 31) <= 3 and abs(kp.y - 31) <= 3

    def test_count_capped_and_sorted(self):
        img = synthetic_texture(256, 256, 5)
        kps = detect(img, max_features=50)
        assert len(kps) == 50
        responses = [kp.response for kp in kps]
        assert responses == sorted(responses, reverse=True)

    def test_strided_pixels_detect_like_a_contiguous_copy(self):
        # The segment test gathers through flat indices into the pixels.
        base = synthetic_texture(256, 192, 2).pixels
        wide = np.zeros((192, 512), dtype=np.uint8)
        wide[:, ::2] = base
        strided = GrayImage(width=256, height=192, pixels=wide[:, ::2])
        assert not strided.pixels.flags.c_contiguous
        assert _bits(detect(strided)) == _bits(detect(GrayImage.from_array(base)))

    def test_border_margin(self):
        img = synthetic_texture(256, 192, 2)
        for kp in detect(img):
            assert 16 <= kp.x < 256 - 16
            assert 16 <= kp.y < 192 - 16

    def test_90_degree_rotation_equivariance(self):
        img = synthetic_texture(256, 256, 5)
        kps_a = detect(img)
        rot = GrayImage.from_array(np.ascontiguousarray(np.rot90(img.pixels, -1)))
        kps_b = detect(rot)
        h = img.pixels.shape[0]
        mapped = {(round(h - 1 - kp.y), round(kp.x)) for kp in kps_a}
        got = {(round(kp.x), round(kp.y)) for kp in kps_b}

        def near(p):
            return any((p[0] + dx, p[1] + dy) in got for dx in (-1, 0, 1) for dy in (-1, 0, 1))

        assert len(kps_a) == len(kps_b)
        assert all(near(p) for p in mapped)

    def test_deterministic(self):
        img = synthetic_texture(128, 128, 9)
        assert list(detect(img)) == list(detect(img))

    @pytest.mark.parametrize("threshold", [256, 300, 32600, 32768, 2**40])
    def test_thresholds_above_255_find_nothing(self, monkeypatch, threshold):
        # In int16, 90 + 32600 wrapped to a negative bound and every circle
        # pixel passed; 32768 raised OverflowError. No pixel can differ from
        # the center by more than 255, so nothing is built.
        flat = GrayImage.from_array(np.full((64, 64), 90, dtype=np.uint8))
        noise = noise_image(64, 64, 3)
        monkeypatch.setattr(detect_module, "_Bands", None)
        assert len(detect(flat, threshold=threshold)) == 0 and len(detect(noise, threshold=threshold)) == 0

    @pytest.mark.parametrize("threshold", [-1, -300, 20.5, 20.0, "20", None])
    def test_negative_or_non_integer_threshold_rejected(self, threshold):
        # -300 used to find 40 corners on noise: every circle pixel was both brighter and darker.
        with pytest.raises(ValueError, match="threshold"):
            detect(noise_image(64, 64, 3), threshold=threshold)

    def test_integer_threshold_types_accepted(self):
        img = synthetic_texture(128, 128, 9)
        rows = [list(detect(img, threshold=t)) for t in (np.uint8(20), np.int64(20), 20)]
        assert rows[0] == rows[1] == rows[2]

    def test_negative_max_features_rejected(self):
        # A negative cap used to slice the weakest keypoints off the end.
        img = synthetic_texture(128, 128, 9)
        assert len(detect(img)) > 1 and len(detect(img, max_features=0)) == 0
        for max_features in (-1, -5):
            with pytest.raises(ValueError):
                detect(img, max_features=max_features)

    @pytest.mark.parametrize("max_features", [100.5, 100.0, "100", None])
    def test_non_integer_max_features_rejected(self, max_features):
        # 100.5 used to fail in the slice with a TypeError.
        with pytest.raises(ValueError, match="max_features"):
            detect(noise_image(64, 64, 3), max_features=max_features)


def _columns(table):
    return [getattr(table, name) for name in ("x", "y", "response", "angle")]


def _rejected_columns(good):
    """Columns a table must reject where it accepts ``good``, by case name ("2-D": one axis too many)."""
    other = np.float64 if good.dtype == np.int64 else np.int64
    cases = {
        "2-D": good[..., None],
        "float32": good.astype(np.float32),
        np.dtype(other).name: good.astype(other),
        "list": good.tolist(),
        "tuple": tuple(map(tuple, good.tolist())) if good.ndim > 1 else tuple(good.tolist()),
        "0-D": good.dtype.type(0),
    }
    if good.ndim > 1:
        cases |= {"1-D": good[:, 0], "3-wide": np.zeros((len(good), 3), dtype=good.dtype)}
    return cases


_VALID_TABLES = (
    KeypointTable(*np.zeros((4, 3))),
    table_from_rows(HotspotTable, (make_hotspot(k, 1.5 * k, 2.0, area_m2=4.0) for k in range(3))),
)
# Field names differ between the tables, so "<field>-<case>" names each case.
_REJECTED_COLUMNS = [
    pytest.param(table, field, column, id=f"{field}-{case}")
    for table in _VALID_TABLES
    for field, good in vars(table).items()
    for case, column in _rejected_columns(good).items()
]


class TestKeypointTable:
    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            KeypointTable(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("table, field, column", _REJECTED_COLUMNS)
    def test_columns_must_be_1d_float64(self, table, field, column):
        """Every ``records.Table`` column: the keypoint columns are float64 (n,), the hotspot
        columns int64 (n,), float64 (n,) or (n, 2) pairs; anything else names its field."""
        columns = dict(vars(table)) | {field: column}
        with pytest.raises(ValueError, match=f"column {field} must be a"):
            type(table)(**columns)

    def test_describe_takes_only_a_table(self):
        img = synthetic_texture(64, 64, 4)
        rows = [Keypoint(x=32.0, y=32.0, response=1.0, angle=0.0)]
        with pytest.raises(TypeError, match="KeypointTable"):
            describe(img, rows)

    def test_columns_are_read_only(self):
        table = detect(synthetic_texture(128, 128, 9))
        for column in _columns(table):
            assert column.dtype == np.float64 and column.ndim == 1 and len(column) == len(table)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        with pytest.raises(AttributeError):
            table.x = np.zeros(len(table))

    def test_rows_round_trip_bit_for_bit(self):
        table = detect(synthetic_texture(128, 128, 9))
        special = KeypointTable(*np.array([[-0.0, 5e-324, math.inf, -math.pi], [0.0, 1.5, -2.5, math.pi]]).T.copy())
        for t in (table, special):
            back = table_from_rows(KeypointTable, list(t))
            assert [c.tobytes() for c in _columns(back)] == [c.tobytes() for c in _columns(t)]
            assert _bits(back) == _bits(t) == _bits([t[i] for i in range(len(t))])
            assert all(type(v) is float for kp in t for v in (kp.x, kp.y, kp.response, kp.angle))

    @pytest.mark.parametrize(
        "image, kwargs",
        [
            (np.full((64, 64), 90, dtype=np.uint8), {}),
            (np.full((40, 32), 90, dtype=np.uint8), {}),
            (np.random.default_rng(3).integers(0, 256, (64, 64), dtype=np.uint8), {"threshold": 256}),
            (np.random.default_rng(3).integers(0, 256, (64, 64), dtype=np.uint8), {"max_features": 0}),
        ],
        ids=["flat", "within-margin", "threshold-256", "max-features-0"],
    )
    def test_no_keypoints_is_an_empty_table(self, image, kwargs):
        table = detect(GrayImage.from_array(image), **kwargs)
        assert isinstance(table, KeypointTable) and len(table) == 0 and not table and list(table) == []
        assert all(c.shape == (0,) and c.dtype == np.float64 for c in _columns(table))
        desc, kept = describe(GrayImage.from_array(image), table)
        assert desc.shape == (0, DESCRIPTOR_BITS // 8) and isinstance(kept, KeypointTable) and len(kept) == 0


def _roll_fast_corner_mask(img, threshold, margin):
    """Oracle: the segment test as 16 boolean planes and np.roll copies, as detect ran it before circle words."""
    h, w = img.shape

    def interior(dx, dy):
        return img[margin + dy : h - margin + dy, margin + dx : w - margin + dx].astype(np.int16)

    center = interior(0, 0)
    bright = np.empty((16,) + center.shape, dtype=bool)
    dark = np.empty_like(bright)
    for i, (dx, dy) in enumerate(CIRCLE):
        ring = interior(dx, dy)
        bright[i] = ring >= center + threshold
        dark[i] = ring <= center - threshold

    def has_arc(flags):
        run = flags.copy()
        for k in range(1, FAST_ARC):
            run &= np.roll(flags, -k, axis=0)
        return run.any(axis=0)

    return has_arc(bright) | has_arc(dark)


def _float_sobel(img):
    """Oracle: edge-padded Sobel gradients from six float64 shifted copies."""
    f = img.astype(np.float64)
    padded = np.pad(f, 1, mode="edge")
    h, w = f.shape

    def shift(dy, dx):
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    gx = shift(-1, 1) + 2 * shift(0, 1) + shift(1, 1) - shift(-1, -1) - 2 * shift(0, -1) - shift(1, -1)
    gy = shift(1, -1) + 2 * shift(1, 0) + shift(1, 1) - shift(-1, -1) - 2 * shift(-1, 0) - shift(-1, 1)
    return gx, gy


def _cumsum_box_sum(arr, size):
    """Oracle: edge-padded window sums from a float64 summed-area table."""
    r = size // 2
    padded = np.pad(arr, r + 1, mode="edge")
    c = padded.cumsum(axis=0).cumsum(axis=1)
    h, w = arr.shape
    return c[size : size + h, size : size + w] - c[:h, size : size + w] - c[size : size + h, :w] + c[:h, :w]


def _float_harris_response(img):
    gx, gy = _float_sobel(img)
    sxx = _cumsum_box_sum(gx * gx, HARRIS_WINDOW)
    syy = _cumsum_box_sum(gy * gy, HARRIS_WINDOW)
    sxy = _cumsum_box_sum(gx * gy, HARRIS_WINDOW)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - HARRIS_K * trace * trace


def _nms_first_wins(response, candidates):
    """Oracle: whole-image 3x3 non-max suppression; exact ties go to the row-major earlier pixel."""
    padded = np.pad(response, 1, mode="constant", constant_values=-np.inf)
    h, w = response.shape

    def nbr(dy, dx):
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    keep = candidates.copy()
    for dy, dx in [(-1, -1), (-1, 0), (-1, 1), (0, -1)]:
        keep &= response > nbr(dy, dx)
    for dy, dx in [(0, 1), (1, -1), (1, 0), (1, 1)]:
        keep &= response >= nbr(dy, dx)
    return keep


def _one_band(img, margin):
    """The band kernels of ``img`` with one band covering its whole interior: (kernels, y0, y1)."""
    h = img.shape[0]
    return _Bands(img, margin, h - 2 * margin), margin, h - margin


def _fast_corner_mask(img, threshold, margin):
    """The segment-test kernel at every interior pixel, as a mask of the interior."""
    h, w = img.shape
    ys, xs = np.mgrid[margin : h - margin, margin : w - margin]
    return _segment_test(img, ys.ravel(), xs.ravel(), threshold).reshape(ys.shape)


def _loop_angle(img, y, x):
    """Oracle: one keypoint's intensity-centroid angle from float64 patch moments."""
    r = ORIENTATION_RADIUS
    ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
    disc = (xs * xs + ys * ys) <= r * r
    patch = img[y - r : y + r + 1, x - r : x + r + 1].astype(np.float64)
    m10 = float((patch * (xs * disc).astype(np.float64)).sum())
    m01 = float((patch * (ys * disc).astype(np.float64)).sum())
    return math.atan2(m01, m10)


def _oracle_detect(image, max_features, threshold):
    """detect composed of the oracles above, with its lexsort and per-keypoint loop."""
    img, m = image.pixels, BORDER_MARGIN
    if image.width <= 2 * m or image.height <= 2 * m:
        return []
    corners = _roll_fast_corner_mask(img, threshold, m)
    if not corners.any():
        return []
    interior = _float_harris_response(img)[m:-m, m:-m]
    ys, xs = np.nonzero(_nms_first_wins(interior, corners))
    scores = interior[ys, xs]
    order = np.lexsort((xs, ys, -scores))[:max_features]
    return [
        Keypoint(float(xs[i] + m), float(ys[i] + m), float(scores[i]), _loop_angle(img, int(ys[i]) + m, int(xs[i]) + m))
        for i in order
    ]


def _bits(keypoints):
    """Each keypoint's fields as float.hex, which tells -0.0 from 0.0."""
    return [tuple(map(float.hex, (k.x, k.y, k.response, k.angle))) for k in keypoints]


# Full range, the extremes that test the int16 comparisons, and few levels.
_PALETTES = [tuple(range(256)), (0, 255), (0, 1, 19, 20, 21, 234, 235, 254, 255), (80, 100, 120)]


@st.composite
def _gray_arrays(draw, lo, hi, max_height=None):
    h, w = draw(st.integers(lo, max_height or hi)), draw(st.integers(lo, hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(draw(st.sampled_from(_PALETTES)), dtype=np.uint8), size=(h, w))


_THRESHOLDS = [0, 1, 20, 254, 255, 300]


def _ring_image(center, ring):
    """7x7 image of ``center`` with CIRCLE pixel i set to ``ring[i]``: one interior pixel at margin 3."""
    img = np.full((7, 7), center, dtype=np.uint8)
    for (dx, dy), value in zip(CIRCLE, ring):
        img[3 + dy, 3 + dx] = value
    return img


def _checkerboard(h, w, cell):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.where((yy // cell + xx // cell) % 2 == 0, 0, 255).astype(np.uint8)


def _stripes(h, w):
    """Vertical 0/255 stripes two pixels wide: |gx| = 4 * 255 off the two edge columns."""
    row = (np.arange(w) // 2 % 2 * 255).astype(np.uint8)
    return np.repeat(row[None, :], h, axis=0)


HARRIS_IMAGES = {
    "random-40x57": lambda: np.random.default_rng(0).integers(0, 256, (40, 57), dtype=np.uint8),
    "random-64x33": lambda: np.random.default_rng(1).integers(0, 256, (64, 33), dtype=np.uint8),
    "texture": lambda: synthetic_texture(96, 80, 2).pixels,
    "checker-1": lambda: _checkerboard(48, 52, 1),
    "checker-2": lambda: _checkerboard(48, 52, 2),
    "checker-3": lambda: _checkerboard(50, 45, 3),
    "stripes-vertical": lambda: _stripes(40, 50),
    "stripes-horizontal": lambda: np.ascontiguousarray(_stripes(50, 40).T),
    "flat-255": lambda: np.full((33, 33), 255, dtype=np.uint8),
}


_SRC = Path(__file__).resolve().parents[1] / "src"

_FAULTS_PER_DETECT = """
import resource
from firescene.features import detect
from imagefix import synthetic_texture, warp_rigid
img = {image}
n = len(detect(img))  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    detect(img)
print(n, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


class TestDetectOracle:
    @given(_gray_arrays(33, 64), st.sampled_from(_THRESHOLDS))
    @settings(max_examples=150, deadline=None)
    def test_fast_mask_matches_roll_oracle(self, img, threshold):
        assert np.array_equal(_fast_corner_mask(img, threshold, 3), _roll_fast_corner_mask(img, threshold, 3))

    @given(_gray_arrays(7, 64), st.sampled_from(_THRESHOLDS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_segment_test_at_points_matches_roll_oracle(self, img, threshold, data):
        # Any subset of the interior, in any order, repeats allowed.
        h, w = img.shape
        points = st.tuples(st.integers(3, h - 4), st.integers(3, w - 4))
        ys, xs = np.array(data.draw(st.lists(points, max_size=60)), dtype=np.intp).reshape(-1, 2).T
        want = _roll_fast_corner_mask(img, threshold, 3)[ys - 3, xs - 3]
        got = _segment_test(img, ys, xs, threshold)
        assert got.dtype == bool and np.array_equal(got, want)

    def test_segment_test_of_no_points_is_empty(self):
        img = synthetic_texture(64, 64, 4).pixels
        none = np.empty(0, dtype=np.intp)
        got = _segment_test(img, none, none, 20)
        assert got.dtype == bool and got.shape == (0,)

    @pytest.mark.parametrize(
        "center, ring, corner",
        [
            (100, [200] * 8 + [100] * 8, False),  # exactly 8 contiguous
            (100, [200] * 4 + [100] * 8 + [200] * 4, False),  # 8, wrapping
            (100, [200] * 5 + [100] * 7 + [200] * 4, True),  # 9, wrapping from index 12 to 4
            (100, [0] * 5 + [100] * 7 + [0] * 4, True),
            (100, [200] * 5 + [0] * 4 + [100] * 7, False),  # 9 that differ, not all one way
            (100, [120] * 9 + [100] * 7, True),  # center + threshold is inclusive
            (100, [119] * 9 + [100] * 7, False),
            (100, [80] * 9 + [100] * 7, True),  # center - threshold is inclusive
            (100, [81] * 9 + [100] * 7, False),
            (5, [0] * 16, False),  # in uint8, 5 - 20 would wrap to 241
            (250, [255] * 16, False),  # in uint8, 250 + 20 would wrap to 14
            (20, [0] * 16, True),
            (235, [255] * 16, True),
        ],
    )
    def test_fast_hand_cases(self, center, ring, corner):
        img = _ring_image(center, ring)
        assert _fast_corner_mask(img, 20, 3).tolist() == [[corner]]
        assert _roll_fast_corner_mask(img, 20, 3).tolist() == [[corner]]

    @pytest.mark.parametrize("name", sorted(HARRIS_IMAGES))
    def test_harris_matches_float_oracle(self, name):
        # At margin _HALO the band's gradients reach one pixel from the image
        # edge and its response (with the NMS ring) _HALO - 1 pixels, so the
        # oracles' edge padding never enters the comparison.
        img = HARRIS_IMAGES[name]()
        bands, y0, y1 = _one_band(img, _HALO)
        gx, gy = bands.gradients(y0, y1)
        want_gx, want_gy = _float_sobel(img)
        assert gx.dtype == gy.dtype == np.int32
        assert np.array_equal(gx, want_gx[1:-1, 1:-1]) and np.array_equal(gy, want_gy[1:-1, 1:-1])
        response = bands.response(y0, y1)
        assert response.dtype == np.float64
        r = _HALO - 1
        assert response.tobytes() == np.ascontiguousarray(_float_harris_response(img)[r:-r, r:-r]).tobytes()

    def test_window_sums_reach_the_int32_bound(self):
        bands, y0, y1 = _one_band(_stripes(40, 50), _HALO)
        gx, gy = bands.gradients(y0, y1)
        assert np.all(np.abs(gx) == 4 * 255) and not gy.any()
        sxx = bands.window_sum(gx * gx)
        assert sxx.dtype == np.int32 and sxx.max() == _HARRIS_SUM_BOUND < 2**31
        r = HARRIS_WINDOW // 2
        assert np.array_equal(sxx, _cumsum_box_sum(gx * gx, HARRIS_WINDOW)[r:-r, r:-r])

    def test_batched_angles_match_per_keypoint_loop(self):
        img = noise_image(200, 160, 3).pixels.copy()
        img[5:45, 5:45] = 90  # uniform: m10 = m01 = 0
        img[5:45, 50:70], img[5:45, 70:90] = 200, 0  # bright left: m01 = 0, m10 < 0
        img[5:25, 100:140], img[25:45, 100:140] = 0, 200  # dark top: m10 = 0, m01 > 0
        img[50:70, 5:45], img[70:90, 5:45] = 200, 0  # dark bottom: m10 = 0, m01 < 0
        special = {(25, 25): 0.0, (25, 70): math.pi, (25, 120): math.pi / 2, (70, 25): -math.pi / 2}
        rng = np.random.default_rng(4)
        r = ORIENTATION_RADIUS
        ys = np.concatenate([[y for y, _ in special], rng.integers(r, 160 - r, 1300)])
        xs = np.concatenate([[x for _, x in special], rng.integers(r, 200 - r, 1300)])
        got = [math.atan2(m01, m10).hex() for m10, m01 in _moments(img, ys, xs).tolist()]
        assert got == [_loop_angle(img, y, x).hex() for y, x in zip(ys.tolist(), xs.tolist())]
        for (y, x), angle in special.items():
            assert _intensity_centroid_angle(img, y, x).hex() == _loop_angle(img, y, x).hex() == angle.hex()

    @given(_gray_arrays(33, 80), st.sampled_from(_THRESHOLDS), st.sampled_from([0, 1, 7, 8000]))
    @settings(max_examples=80, deadline=None)
    def test_detect_matches_oracle(self, arr, threshold, max_features):
        img = GrayImage.from_array(arr)
        assert _bits(detect(img, max_features, threshold)) == _bits(_oracle_detect(img, max_features, threshold))

    @pytest.mark.parametrize("band_rows", [1, 2, 3, 7])
    @given(arr=_gray_arrays(33, 80, max_height=160), threshold=st.sampled_from(_THRESHOLDS),
           max_features=st.sampled_from([0, 1, 7, 8000]))
    @settings(max_examples=30, deadline=None)
    def test_detect_matches_oracle_across_band_seams(self, band_rows, arr, threshold, max_features):
        # Bands this short put a seam on every halo row of the Sobel, the window sums and the NMS.
        img = GrayImage.from_array(arr)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect_module, "_BAND_ROWS", band_rows)
            got = detect(img, max_features, threshold)
        assert _bits(got) == _bits(_oracle_detect(img, max_features, threshold))

    @pytest.mark.parametrize("band_rows", [1, 64])
    @pytest.mark.parametrize("seed, angle, shift", [(3, 10.0, (20.0, 0.0)), (140, -6.0, (14.0, 3.0))])
    def test_detect_matches_oracle_on_zero_filled_corners(self, band_rows, seed, angle, shift):
        # The warp leaves flat zero regions: every pixel there equals its 3x3
        # maximum, so only the strict gather over earlier neighbours drops them.
        img = warp_rigid(synthetic_texture(640, 512, seed), angle, shift)
        assert (img.pixels[:BORDER_MARGIN + 8, :BORDER_MARGIN + 8] == 0).all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect_module, "_BAND_ROWS", band_rows)
            got = detect(img)
        want = _oracle_detect(img, 8000, 20)
        assert len(want) > 1000 and _bits(got) == _bits(want)

    @pytest.mark.parametrize("max_features", [8000, 30])
    def test_tied_responses_keep_row_major_order(self, max_features):
        # Four square brightnesses in turn: four groups of equal responses,
        # interleaved in position, so a sort that is not stable reorders them.
        arr = np.zeros((160, 160), dtype=np.uint8)
        for k, (y, x) in enumerate((y, x) for y in range(20, 140, 12) for x in range(20, 140, 12)):
            arr[y : y + 3, x : x + 3] = (255, 120, 200, 60)[k % 4]
        img = GrayImage.from_array(arr)
        want = _oracle_detect(img, max_features, 20)
        assert len({k.response for k in want}) < len(want)
        assert _bits(detect(img, max_features)) == _bits(want)

    def test_peak_memory_at_the_feature_cap(self):
        # A 1280x1024 noise image yields more corners than the 8000 cap. The
        # boolean segment-test planes and float64 Harris sums peaked at 91.2
        # MiB here, and whole-image circle words and int32 sums near 51 MiB.
        # Row bands hold only a band's planes; the peak is near 13 MiB.
        img = noise_image(1280, 1024, 5)
        tracemalloc.start()
        try:
            kps = detect(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kps) == 8000
        assert peak <= 24 * 2**20

    def test_repeated_calls_do_not_fault_fresh_pages(self):
        # Whole-image planes of 0.6-2.6 MB were mapped and unmapped on every
        # call: about 5050 minor faults a call on this texture. A band's
        # buffers stay on the heap between calls.
        _assert_few_faults_per_detect("synthetic_texture(640, 512, 3)")

    def test_repeated_calls_on_a_warped_texture_do_not_fault_fresh_pages(self):
        # Its zero-filled corners raise the local-maximum candidates by half.
        _assert_few_faults_per_detect("warp_rigid(synthetic_texture(640, 512, 3), 10.0, (20.0, 0.0))")


def _assert_few_faults_per_detect(image):
    """``detect`` on ``image`` (an expression) faults under 500 pages a call, warm, in a fresh process.

    The process gets glibc's default allocator settings, because earlier
    tests in this one may have raised its mmap threshold and hidden the faults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join([str(_SRC), str(Path(__file__).parent)])
    script = _FAULTS_PER_DETECT.format(image=image)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    kps, faults = out.stdout.split()
    assert int(kps) > 1000
    assert float(faults) < 500


def _loop_describe(image, keypoints):
    """Oracle: describe as a per-keypoint loop with per-bin 2-D fancy indexing."""
    img = image.pixels
    h, w = img.shape
    kept, coords, bins = [], [], []
    for kp in keypoints:
        x, y = int(round(kp.x)), int(round(kp.y))
        if not (PATCH_RADIUS <= x < w - PATCH_RADIUS and PATCH_RADIUS <= y < h - PATCH_RADIUS):
            continue
        kept.append(kp)
        coords.append((y, x))
        frac = (kp.angle % (2.0 * math.pi)) / (2.0 * math.pi)
        bins.append(int(round(frac * ANGLE_BINS)) % ANGLE_BINS)
    if not kept:
        return np.empty((0, DESCRIPTOR_BITS // 8), dtype=np.uint8), []
    coords_arr = np.asarray(coords, dtype=np.int64)
    bins_arr = np.asarray(bins, dtype=np.int64)
    bits = np.empty((len(kept), DESCRIPTOR_BITS), dtype=bool)
    for b in np.unique(bins_arr):
        sel = np.nonzero(bins_arr == b)[0]
        table = _ROTATED[b]
        ys = coords_arr[sel, 0][:, None]
        xs = coords_arr[sel, 1][:, None]
        bits[sel] = img[ys + table[:, 1], xs + table[:, 0]] < img[ys + table[:, 3], xs + table[:, 2]]
    return np.packbits(bits, axis=1), kept


def _bin_edge_angles():
    """Angles on and one ulp either side of every rounding edge between bins, and at +-pi, 0 and 2*pi."""
    edges = [2.0 * math.pi * (b + 0.5) / ANGLE_BINS for b in range(ANGLE_BINS)]
    edges += [-e for e in edges] + [math.pi, -math.pi, 0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi, -1e-300]
    return [float(v) for e in edges for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]


def _border_coordinates(side):
    """Pixel coordinates and half-pixels around both PATCH_RADIUS borders of an image side."""
    r = PATCH_RADIUS
    near = [r - 1, r - 0.5, r, r + 0.5, side - r - 1.5, side - r - 1, side - r - 0.5, side - r]
    return near + [side / 2.0, -3.0, side + 7.25]


def _assert_describes_like_loop(image, keypoints):
    table = table_from_rows(KeypointTable, keypoints)
    desc, kept = describe(image, table)
    want_desc, want_kept = _loop_describe(image, list(table))
    assert desc.dtype == np.uint8 and desc.shape == want_desc.shape
    assert np.array_equal(desc, want_desc)
    assert _bits(kept) == _bits(want_kept)


@st.composite
def _describe_cases(draw):
    """A noise image and keypoints anywhere on or near it, with angles from bin edges or anywhere."""
    w, h = draw(st.integers(31, 90)), draw(st.integers(31, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = GrayImage.from_array(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
    n = draw(st.integers(0, 40))
    xs = draw(st.lists(st.sampled_from(_border_coordinates(w)) | st.floats(-5, w + 5), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from(_border_coordinates(h)) | st.floats(-5, h + 5), min_size=n, max_size=n))
    angles = draw(st.lists(st.sampled_from(_bin_edge_angles()) | st.floats(-20, 20), min_size=n, max_size=n))
    return image, [Keypoint(x=x, y=y, response=1.0, angle=a) for x, y, a in zip(xs, ys, angles)]


class TestDescribe:
    def test_deterministic(self):
        img = synthetic_texture(128, 128, 4)
        kps = detect(img)
        d1, k1 = describe(img, kps)
        d2, k2 = describe(img, kps)
        assert np.array_equal(d1, d2)
        assert list(k1) == list(k2)

    def test_alignment_one_to_one(self):
        img = synthetic_texture(128, 128, 4)
        kps = detect(img)
        desc, kept = describe(img, kps)
        assert len(desc) == len(kept)
        assert desc.shape[1] == 32  # 256 bits packed

    def test_border_keypoints_filtered_not_fatal(self):
        img = synthetic_texture(64, 64, 4)
        fake = table_from_rows(KeypointTable, [Keypoint(x=2.0, y=2.0, response=1.0, angle=0.0)])
        desc, kept = describe(img, fake)
        assert len(desc) == 0 and len(kept) == 0

    def test_180_rotation_with_compensation(self):
        # Empirical bound frozen after an oracle run: compensated descriptors
        # match exactly on this fixture (a 180-degree turn permutes pixels and
        # negates every integer pattern offset), so the <= 64 bound is loose.
        img = synthetic_texture(256, 256, 5)
        rot = GrayImage.from_array(np.ascontiguousarray(np.rot90(img.pixels, 2)))
        kps = table_from_rows(KeypointTable, list(detect(img))[:100])
        desc, kept = describe(img, kps)
        h, w = img.pixels.shape
        rotated_kps = []
        for kp in kept:
            rx, ry = w - 1 - kp.x, h - 1 - kp.y
            ang = _intensity_centroid_angle(rot.pixels, int(ry), int(rx))
            rotated_kps.append(Keypoint(x=rx, y=ry, response=kp.response, angle=ang))
        rdesc, rkept = describe(rot, table_from_rows(KeypointTable, rotated_kps))
        assert len(rdesc) == len(desc)
        dists = [hamming_distance(desc[i], rdesc[i]) for i in range(len(desc))]
        assert max(dists) <= 64

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_matches_per_keypoint_loop_on_borders_and_bin_edges(self, monkeypatch, chunk):
        monkeypatch.setattr(describe_module, "_DESCRIBE_CHUNK", chunk)
        image = noise_image(70, 50, 11)
        kps = [
            Keypoint(x=float(x), y=float(y), response=1.0, angle=a)
            for x in _border_coordinates(70)
            for y in _border_coordinates(50)
            for a in _bin_edge_angles()[::7]
        ]
        kps += [Keypoint(x=35.0, y=25.0, response=1.0, angle=a) for a in _bin_edge_angles()]
        _assert_describes_like_loop(image, kps)

    @given(_describe_cases(), st.sampled_from([1, 3, 256]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_keypoint_loop(self, case, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(describe_module, "_DESCRIBE_CHUNK", chunk)
            _assert_describes_like_loop(*case)

    @pytest.mark.parametrize(
        "field, value",
        [("x", math.inf), ("x", math.nan), ("angle", math.nan), ("angle", math.inf), ("y", -math.inf)],
    )
    def test_non_finite_keypoints_rejected(self, field, value):
        # An infinite x raised OverflowError and the others ValueError, from int(round(...)).
        img = synthetic_texture(64, 64, 4)
        fields = {"x": 32.0, "y": 32.0, "response": 1.0, "angle": 0.5, field: value}
        kps = [Keypoint(x=20.0, y=20.0, response=1.0, angle=0.0), Keypoint(**fields)]
        with pytest.raises(ValueError):
            describe(img, table_from_rows(KeypointTable, kps))

    def test_peak_memory_at_the_feature_cap(self):
        # Indices are gathered _DESCRIBE_CHUNK keypoints at a time into one
        # buffer; gathering all 8000 keypoints at once peaks near 67 MiB here.
        img = noise_image(1280, 1024, 5)
        kps = detect(img)
        tracemalloc.start()
        try:
            desc, kept = describe(img, kps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kps) == len(kept) == len(desc) == 8000
        assert peak <= 8 * 2**20

    def test_random_descriptors_mean_hamming(self):
        # Binomial expectation: independent 256-bit strings differ in ~128 bits.
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, size=(300, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(300, 32), dtype=np.uint8)
        mean = hamming_matrix(a, b).mean()
        assert mean == pytest.approx(128.0, abs=1.0)


class TestHammingMetric:
    def test_symmetry_and_triangle_sampled(self):
        rng = np.random.default_rng(7)
        d = rng.integers(0, 256, size=(40, 32), dtype=np.uint8)
        m = hamming_matrix(d, d)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0)
        for _ in range(300):
            i, j, k = rng.integers(0, 40, size=3)
            assert m[i, k] <= m[i, j] + m[j, k]

    @pytest.mark.parametrize(
        "na, nb",
        [(2 * _BLOCK_ROWS + 3, 5), (_BLOCK_ROWS + 1, 1), (0, 4), (4, 0), (0, 0)],
        ids=["na-not-block-multiple", "nb-one", "zero-a-rows", "zero-b-rows", "both-empty"],
    )
    def test_matches_pairwise_distance_loop(self, na, nb):
        rng = np.random.default_rng(na * 31 + nb)
        a = rng.integers(0, 256, size=(na, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(nb, 32), dtype=np.uint8)
        m = hamming_matrix(a, b)
        assert m.dtype == np.uint16 and m.shape == (na, nb)
        want = [[hamming_distance(a[i], b[j]) for j in range(nb)] for i in range(na)]
        assert np.array_equal(m, np.array(want, dtype=np.int64).reshape(na, nb))

    @pytest.mark.parametrize(
        "desc",
        [
            np.zeros((3, 32), dtype=np.int64),
            np.zeros((3, 32), dtype=bool),
            np.zeros((3, 32), dtype=np.int8),
            np.zeros((3, 31), dtype=np.uint8),
            np.zeros((3, 64), dtype=np.uint8),
            np.zeros(32, dtype=np.uint8),
            np.zeros((3, 4), dtype=np.uint64),
        ],
        ids=["int64", "bool", "int8", "narrow", "wide", "one-dimensional", "uint64-words"],
    )
    def test_unpacked_descriptors_rejected(self, desc):
        # An int64 row of zeros against a row of ones used to read 32, not 256.
        ones = np.ones_like(desc)
        good = np.zeros((3, 32), dtype=np.uint8)
        for a, b in ((desc, ones), (desc, good), (good, desc)):
            with pytest.raises(ValueError):
                hamming_matrix(a, b)
            with pytest.raises(ValueError):
                match(a, b)

    def test_all_bits_differing_reach_256(self):
        a = np.zeros((_BLOCK_ROWS + 2, 32), dtype=np.uint8)
        b = np.full((3, 32), 0xFF, dtype=np.uint8)
        m = hamming_matrix(a, b)
        assert m.dtype == np.uint16
        assert np.all(m == 256) and hamming_distance(a[0], b[0]) == 256


def _oracle_match(desc_a, desc_b, ratio):
    """Oracle: match on the full distance matrix, with argmin and a sorted second neighbor."""
    dist = hamming_matrix(desc_a, desc_b).astype(np.int64)
    j1 = dist.argmin(axis=1)
    rows = np.arange(len(dist))
    d1 = dist[rows, j1]
    keep = np.ones(len(dist), dtype=bool) if dist.shape[1] == 1 else d1 < ratio * np.sort(dist, axis=1)[:, 1]
    return np.stack([rows[keep], j1[keep]], axis=1), d1[keep]


@st.composite
def _descriptor_pairs(draw):
    """Two descriptor sets that differ only in two bytes from a 4-value alphabet: ties and d2 = 0 are common."""
    na = draw(st.sampled_from([1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]))
    nb = draw(st.sampled_from([1, 2, 3, 9, _BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = np.array([0x00, 0x01, 0x0F, 0xFF], dtype=np.uint8)
    a = np.zeros((na, 32), dtype=np.uint8)
    b = np.zeros((nb, 32), dtype=np.uint8)
    a[:, 5:7] = alphabet[rng.integers(0, 4, size=(na, 2))]
    b[:, 5:7] = alphabet[rng.integers(0, 4, size=(nb, 2))]
    return a, b


class TestMatch:
    @given(_descriptor_pairs(), st.sampled_from([0.0, 0.5, 0.8, 1.0, 1.5, 10.0]))
    @settings(max_examples=120, deadline=None)
    def test_matches_full_matrix_oracle(self, descs, ratio):
        pairs, dists = match(*descs, ratio=ratio)
        want_pairs, want_dists = _oracle_match(*descs, ratio)
        assert pairs.dtype == dists.dtype == np.int64 and pairs.shape == (len(dists), 2)
        assert np.array_equal(pairs, want_pairs) and np.array_equal(dists, want_dists)

    def test_peak_memory_on_8000_descriptors(self):
        # The full uint16 distance matrix alone is 122 MiB here; match peaked
        # near 140 MiB when it built it.
        rng = np.random.default_rng(16)
        a = rng.integers(0, 256, size=(8000, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(8000, 32), dtype=np.uint8)
        b[:50] = a[:50]
        tracemalloc.start()
        try:
            pairs, _ = match(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {(i, i) for i in range(50)} <= {tuple(p) for p in pairs.tolist()}
        assert peak <= 16 * 2**20

    def test_identity_self_match(self):
        rng = np.random.default_rng(1)
        d = rng.integers(0, 256, size=(60, 32), dtype=np.uint8)
        # distinct descriptors so the second-best distance is positive
        assert len(np.unique(d, axis=0)) == 60
        pairs, dists = match(d, d)
        assert len(pairs) == 60
        assert np.array_equal(pairs[:, 0], pairs[:, 1])
        assert np.all(dists == 0)

    def test_single_element_b_kept(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, size=(5, 32), dtype=np.uint8)
        b = a[2:3].copy()
        pairs, _ = match(a, b)
        assert len(pairs) == 5  # no second neighbor means no ambiguity

    def test_empty_rejected(self):
        a = np.empty((0, 32), dtype=np.uint8)
        with pytest.raises(ValueError):
            match(a, a)

    def test_planted_pairs_survive_ratio_test(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 256, size=(50, 32), dtype=np.uint8)
        noise_a = rng.integers(0, 256, size=(450, 32), dtype=np.uint8)
        noise_b = rng.integers(0, 256, size=(450, 32), dtype=np.uint8)
        # Perturb each planted copy by flipping a couple of known bits.
        perturbed = base.copy()
        perturbed[:, 0] ^= 0x03
        a = np.vstack([base, noise_a])
        b = np.vstack([perturbed, noise_b])
        pairs, _ = match(a, b)
        planted = {(i, i) for i in range(50)}
        got = {(int(i), int(j)) for i, j in pairs}
        assert len(planted & got) >= 45

    def test_tie_breaks_to_lower_index(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        b = np.zeros((3, 32), dtype=np.uint8)
        # 0 and 1 tie at a nonzero distance (a d2 of 0 never passes the ratio test)
        b[0, 0] = b[1, 0] = 0x01
        b[2] = 0xFF
        dist = hamming_matrix(a, b)
        assert dist[0, 0] == dist[0, 1] == 1
        pairs, _ = match(a, b, ratio=10.0)  # permissive ratio: keep the nearest
        assert pairs.tolist() == [[0, 0]]

    @pytest.mark.parametrize("ratio", [-1.0, -1e-300, float("nan"), float("-inf")])
    def test_negative_or_nan_ratio_rejected(self, ratio):
        # A NaN ratio kept no match at all: d1 < nan * d2 is always false.
        d = np.random.default_rng(1).integers(0, 256, size=(5, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="ratio"):
            match(d, d, ratio=ratio)

    def test_exact_duplicate_tie_dropped(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        b = np.zeros((3, 32), dtype=np.uint8)
        b[2, 0] = 0xFF  # 0 and 1 tie at distance 0: fully ambiguous
        for ratio in (0.8, 10.0):
            pairs, dists = match(a, b, ratio=ratio)
            assert pairs.shape == (0, 2) and len(dists) == 0


def _similarity(points, angle_deg, scale, shift):
    theta = math.radians(angle_deg)
    c, s = math.cos(theta) * scale, math.sin(theta) * scale
    x, y = points[:, 0], points[:, 1]
    return np.stack([c * x - s * y + shift[0], s * x + c * y + shift[1]], axis=1)


class TestRansac:
    def test_exact_similarity_recovery(self):
        rng = np.random.default_rng(4)
        src = rng.uniform(0, 500, size=(40, 2))
        dst = _similarity(src, 12.0, 1.3, (40.0, -25.0))
        res = ransac_homography(src, dst, reproj_threshold=20.0, iterations=2000, seed=0)
        assert res.inlier_count == 40
        h = res.homography
        ones = np.ones((40, 1))
        proj = np.hstack([src, ones]) @ h.T
        errs = np.hypot(proj[:, 0] / proj[:, 2] - dst[:, 0], proj[:, 1] / proj[:, 2] - dst[:, 1])
        assert errs.max() < 1e-6

    def test_gross_outliers(self):
        rng = np.random.default_rng(5)
        inl = rng.uniform(0, 500, size=(40, 2))
        dst_inl = _similarity(inl, -8.0, 0.9, (10.0, 60.0))
        out = rng.uniform(0, 500, size=(60, 2))
        dst_out = rng.uniform(0, 500, size=(60, 2))
        src = np.vstack([inl, out])
        dst = np.vstack([dst_inl, dst_out])
        res = ransac_homography(src, dst, reproj_threshold=20.0, iterations=2000, seed=0)
        assert res.inlier_count >= 36
        assert res.inlier_mask[:40].sum() >= 36

    def test_minimal_fit_reproduces_correspondences(self):
        src = np.array([(10.0, 20.0), (400.0, 35.0), (380.0, 450.0), (25.0, 300.0)])
        dst = _similarity(src, 12.0, 1.3, (40.0, -25.0))
        h, fitted = ransac._fit(src[None], dst[None])
        assert h.shape == (1, 3, 3) and fitted.tolist() == [True] and h[0, 2, 2] == 1.0
        proj = np.hstack([src, np.ones((4, 1))]) @ h[0].T
        errs = np.hypot(proj[:, 0] / proj[:, 2] - dst[:, 0], proj[:, 1] / proj[:, 2] - dst[:, 1])
        assert errs.max() < 1e-9

    def test_minimal_fit_three_collinear_rejected(self):
        src = np.array([(0.0, 0.0), (100.0, 100.0), (250.0, 250.0), (30.0, 400.0)])
        dst = _similarity(src, 5.0, 1.0, (3.0, 4.0))
        _, fitted = ransac._fit(np.stack([src, dst]), np.stack([dst, src]))
        assert fitted.tolist() == [False, False]

    def test_refit_on_thousands_of_exact_correspondences(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(0, 640, size=(3000, 2))
        dst = _similarity(src, 10.0, 1.0, (20.0, 0.0))
        res = ransac_homography(src, dst, iterations=10, seed=0)
        assert res.inlier_count == 3000
        proj = np.hstack([src, np.ones((3000, 1))]) @ res.homography.T
        errs = np.hypot(proj[:, 0] / proj[:, 2] - dst[:, 0], proj[:, 1] / proj[:, 2] - dst[:, 1])
        assert errs.max() < 1e-6

    def test_insufficient_correspondences(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(RansacError, match="insufficient"):
            ransac_homography(pts, pts)

    def test_all_collinear_degenerate(self):
        src = np.array([(float(i), float(i)) for i in range(8)])
        with pytest.raises(DegenerateSamplesError):
            ransac_homography(src, src, iterations=50, seed=0)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(6)
        src = rng.uniform(0, 300, size=(30, 2))
        dst = _similarity(src, 5.0, 1.0, (3.0, 4.0)) + rng.normal(0, 4.0, size=(30, 2))
        a = ransac_homography(src, dst, seed=11)
        b = ransac_homography(src, dst, seed=11)
        assert a.inlier_count == b.inlier_count
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        assert np.array_equal(a.homography, b.homography)

    def test_homography_normalized(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(0, 300, size=(20, 2))
        dst = _similarity(src, 3.0, 1.1, (5.0, 5.0))
        res = ransac_homography(src, dst)
        assert res.homography[2, 2] == pytest.approx(1.0)


def _loop_product(a, b):
    """a b of 3x3 nested lists, each entry summed as (a0 * b0 + a1 * b1) + a2 * b2."""
    return [[a[r][0] * b[0][c] + a[r][1] * b[1][c] + a[r][2] * b[2][c] for c in range(3)] for r in range(3)]


def _loop_unit_h22(h):
    """h scaled to h[2][2] = 1 as an array, or None unless every entry is finite."""
    if h[2][2] == 0.0:  # Python floats raise on a division by zero
        return None
    h = np.array([[e / h[2][2] for e in row] for row in h])
    return h if np.isfinite(h).all() else None


def _loop_square_to(p):
    """Heckbert's map of the unit square's corners onto 4 points, times its denominator, in Python floats."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = p.tolist()
    sx, sy = x0 - x1 + x2 - x3, y0 - y1 + y2 - y3
    dx1, dy1, dx2, dy2 = x1 - x2, y1 - y2, x3 - x2, y3 - y2
    den, g, h = dx1 * dy2 - dy1 * dx2, sx * dy2 - sy * dx2, dx1 * sy - dy1 * sx
    return [
        [(x1 - x0) * den + g * x1, (x3 - x0) * den + h * x3, x0 * den],
        [(y1 - y0) * den + g * y1, (y3 - y0) * den + h * y3, y0 * den],
        [g, h, den],
    ]


def _loop_adjugate(m):
    """adj(m) of a 3x3 nested list, cofactor by cofactor."""
    cof = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3] for j in range(3)] for i in range(3)]
    return [[cof[j][i] for j in range(3)] for i in range(3)]


def _loop_fit(src, dst):
    """One closed-form minimal fit of 4 points, Q_dst adj(Q_src), in Python floats, or None."""
    if _loop_any_three_collinear(src) or _loop_any_three_collinear(dst):
        return None
    return _loop_unit_h22(_loop_product(_loop_square_to(dst), _loop_adjugate(_loop_square_to(src))))


def _loop_normalize(pts):
    """Hartley normalization of (m, 2) points: the similarity, its inverse and the moved x and y."""
    x, y = pts[:, 0], pts[:, 1]
    cx, cy = x.mean(), y.mean()
    x, y = x - cx, y - cy
    dist = np.sqrt(x * x + y * y).mean()
    scale = math.sqrt(2.0) / dist if dist > 0 else 1.0
    t = [[scale, 0.0, -scale * cx], [0.0, scale, -scale * cy], [0.0, 0.0, 1.0]]
    inv = [[1.0 / scale, 0.0, cx], [0.0, 1.0 / scale, cy], [0.0, 0.0, 1.0]]
    return t, inv, x * scale, y * scale


def _loop_eliminate(a, b):
    """Gaussian elimination with partial pivoting on nested lists of Python floats, or None."""
    n = len(b)
    if not np.isfinite(a).all():
        return None
    tol = 1e-12 * max(abs(e) for row in a for e in row)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))  # the first largest
        if not abs(m[p][k]) > tol:
            return None
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] = m[i][j] - f * m[k][j]
    x = [row[n] for row in m]
    for k in reversed(range(n)):
        x[k] = x[k] / m[k][k]
        for i in range(k):
            x[i] = x[i] - m[i][k] * x[k]
    return x


def _loop_refit(src, dst):
    """The h[2, 2] = 1 least-squares refit, one normal-equation entry at a time, or None."""
    t_src, _, x, y = _loop_normalize(src)
    _, inv_dst, u, v = _loop_normalize(dst)
    p, r = [x, y, np.ones(len(x))], u * u + v * v

    def total(terms):
        return float(np.add.reduce(terms))

    a = [[0.0] * 8 for _ in range(8)]
    for i in range(3):
        for j in range(3):
            a[i][j] = a[i + 3][j + 3] = total(p[i] * p[j])
        for j in range(2):
            a[i][6 + j] = a[6 + j][i] = -total(p[i] * (p[j] * u))
            a[i + 3][6 + j] = a[6 + j][i + 3] = -total(p[i] * (p[j] * v))
    for i in range(2):
        for j in range(2):
            a[6 + i][6 + j] = total(p[i] * (p[j] * r))
    b = [total(pi * u) for pi in p] + [total(pi * v) for pi in p] + [-total(p[i] * r) for i in range(2)]
    h8 = _loop_eliminate(a, b)
    if h8 is None:
        return None
    hn = [h8[0:3], h8[3:6], [h8[6], h8[7], 1.0]]
    return _loop_unit_h22(_loop_product(_loop_product(inv_dst, hn), t_src))


def _loop_any_three_collinear(pts):
    span = np.abs(pts).max() + 1.0
    tol = 1e-9 * span * span
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                v1, v2 = pts[j] - pts[i], pts[k] - pts[i]
                if abs(v1[0] * v2[1] - v1[1] * v2[0]) <= tol:
                    return True
    return False


def _loop_errors(h, src, dst):
    """Forward reprojection errors of one model, with ex = px / w - u and ey = py / w - v, and the w."""
    x, y, u, v = src[:, 0], src[:, 1], dst[:, 0], dst[:, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        px, py, w = (h[r, 0] * x + h[r, 1] * y + h[r, 2] for r in range(3))
        ex, ey = px / w - u, py / w - v
        return np.sqrt(ex * ex + ey * ey), w


def _loop_inliers(h, src, dst, threshold):
    errors, w = _loop_errors(h, src, dst)
    return (np.abs(w) > 1e-12) & (errors < threshold)


def _loop_samples_needed(count, n):
    w = count / n
    if w == 1.0:
        return 0.0
    if w == 0.0:
        return math.inf
    return math.log(1.0 - ransac.CONFIDENCE) / math.log(1.0 - w**4)


def loop_ransac(src, dst, *, reproj_threshold=20.0, iterations=2000, seed=0):
    """Independent oracle: one sample, fit and score per Python iteration.

    It shares only the drawn samples and the chunk size with the batched
    estimator: the stop rule is tested whenever a chunk's worth of samples
    has been drawn.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if iterations < 1 or not reproj_threshold > 0:
        raise ValueError("bad arguments")
    n = len(src)
    if n < 4:
        raise RansacError(f"insufficient correspondences: {n} < 4")
    samples = ransac._draw(np.random.Generator(np.random.PCG64(seed)), n, iterations)
    chunk = max(1, ransac._CHUNK_MODEL_POINTS // n)
    best_mask, best_count, best_h, produced_model = None, 0, None, False
    for drawn, idx in enumerate(samples, start=1):
        with np.errstate(invalid="ignore", over="ignore"):
            h = _loop_fit(src[idx], dst[idx])
        if h is not None:
            produced_model = True
            mask = _loop_inliers(h, src, dst, reproj_threshold)
            if int(mask.sum()) > best_count:
                best_count, best_mask, best_h = int(mask.sum()), mask, h
        if (drawn % chunk == 0 or drawn == iterations) and drawn >= _loop_samples_needed(best_count, n):
            break
    if not produced_model:
        raise DegenerateSamplesError("all sampled minimal sets were degenerate")
    if best_h is None:
        raise RansacError("no sampled model holds an inlier")
    refit = _loop_refit(src[best_mask], dst[best_mask]) if best_count >= 4 else None
    if refit is not None:
        mask = _loop_inliers(refit, src, dst, reproj_threshold)
        if int(mask.sum()) >= 4:
            return ransac.RansacResult(refit, mask, int(mask.sum()), drawn)
    return ransac.RansacResult(best_h, best_mask, best_count, drawn)


def _outcome(estimator, src, dst, **kwargs):
    """What an estimator returns, as bytes, or the RANSAC or argument error type it raises."""
    try:
        res = estimator(src, dst, **kwargs)
    except (RansacError, ValueError) as exc:
        return type(exc)
    return res.inlier_count, res.inlier_mask.tobytes(), res.homography.tobytes(), res.iterations


@st.composite
def _planted_correspondences(draw):
    """4-300 correspondences of a planted similarity with noise and a planted outlier share."""
    n = draw(st.integers(4, 300))
    outlier_share = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    noise_px = draw(st.sampled_from([0.0, 2.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src = rng.uniform(0, 640, size=(n, 2))
    if draw(st.booleans()):  # a coarse grid: duplicated points and collinear samples
        src = np.round(src / 80.0) * 80.0
    dst = _similarity(src, rng.uniform(-30, 30), rng.uniform(0.8, 1.25), rng.uniform(-40, 40, size=2))
    dst += rng.normal(0.0, noise_px, size=(n, 2))
    outliers = rng.random(n) < outlier_share
    dst[outliers] = rng.uniform(0, 640, size=(int(outliers.sum()), 2))
    return src, dst


class TestBatchedRansacOracle:
    @given(_planted_correspondences(), st.integers(1, 200), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_iteration_loop(self, pairs, iterations, seed):
        src, dst = pairs
        want = _outcome(loop_ransac, src, dst, iterations=iterations, seed=seed)
        assert _outcome(ransac_homography, src, dst, iterations=iterations, seed=seed) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    def test_collinear_test_matches_triple_loop(self):
        # One point off the line through two others by 0.5-2x the
        # 1e-9 * span^2 tolerance, duplicates, and non-finite coordinates.
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 640, size=(400, 4, 2))
        for k in range(0, 300, 3):
            i, j, moved = rng.permutation(4)[:3]
            p, q = pts[k, i], pts[k, j]
            pts[k, moved] = p + rng.uniform(-0.5, 1.5) * (q - p)
            span = np.abs(pts[k]).max() + 1.0
            offset = rng.choice([0.5, 0.99, 1.01, 2.0]) * 1e-9 * span * span / np.hypot(*(q - p))
            pts[k, moved] += offset * np.array([p[1] - q[1], q[0] - p[0]]) / np.hypot(*(q - p))
        pts[300:320, 3] = pts[300:320, 1]
        pts[320:340, 2, 0] = [np.nan, np.inf, -np.inf, 1e308] * 5
        want = [_loop_any_three_collinear(sample) for sample in pts]
        assert 40 < sum(want) < 360
        assert ransac._collinear(pts).tolist() == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    @pytest.mark.parametrize("m", [4, 5, 60])
    def test_refit_matches_per_sample_loop(self, m):
        rng = np.random.default_rng(m)
        src = rng.uniform(0, 640, size=(300, m, 2))
        dst = _similarity(src.reshape(-1, 2), 9.0, 1.1, (5.0, -3.0)).reshape(src.shape)
        dst += rng.normal(0.0, 3.0, size=dst.shape)
        src[10:20, 2] = src[10:20, 1]  # rank-deficient at m = 4
        src[20:30, :3, 1] = 50.0  # three collinear points
        src[30:40, 0, 0] = np.nan
        dst[40:50, 1, 1] = np.inf
        src[50:60, 1:] = src[50:60, :1]  # all points coincide
        src[60:70, :, 1] = 50.0  # all points on one line
        fits = [_loop_refit(s, d) for s, d in zip(src, dst)]
        singular = [30 <= i < 70 or (m == 4 and 10 <= i < 20) for i in range(300)]
        assert [fit is None for fit in fits] == singular
        for s, d, fit in zip(src, dst, fits):
            got = ransac._refit(s, d)
            assert (got is None) == (fit is None)
            if fit is not None:
                assert got.tobytes() == fit.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    def test_minimal_fits_match_per_sample_loop(self):
        rng = np.random.default_rng(17)
        src = rng.uniform(0, 640, size=(300, 4, 2))
        dst = _similarity(src.reshape(-1, 2), 7.0, 1.05, (4.0, -9.0)).reshape(src.shape)
        dst[8:] += rng.normal(0.0, 3.0, size=dst[8:].shape)  # noisy matches: general homographies
        # Sample 1 is a square whose map sends its centroid to infinity, so
        # h[2, 2] = 0 in the square's own normalized coordinates; the
        # closed form, in pixel coordinates, still fits it.
        src[1] = [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]
        dst[1] = [(2.0, 8.0), (4.0, 6.0), (4.0, 8.0), (2.0, 6.0)]
        src[3, 2, 0] = np.nan
        dst[4, 1, 1] = np.inf
        src[5, 2] = src[5, 1]  # a repeated point
        dst[6, :3, 1] = 50.0  # three collinear points
        src[7, 0] = 1e200  # products overflow
        with np.errstate(invalid="ignore", over="ignore"):
            fits = [_loop_fit(s, d) for s, d in zip(src, dst)]
        h, fitted = ransac._fit(src, dst)
        assert fitted.tolist()[:8] == [True, True, True, False, False, False, False, False]
        assert fitted.tolist() == [fit is not None for fit in fits] and fitted[8:].all()
        assert h[fitted].tobytes() == np.array([fit for fit in fits if fit is not None]).tobytes()
        hp = np.hstack([src[1], np.ones((4, 1))]) @ h[1].T
        assert np.abs(hp[:, :2] / hp[:, 2:] - dst[1]).max() < 1e-9

    def test_duplicated_points_give_collinear_samples(self):
        base = np.array([(10.0, 20.0), (400.0, 35.0), (380.0, 450.0), (25.0, 300.0), (200.0, 210.0)])
        src = np.repeat(base, 3, axis=0)
        dst = _similarity(src, 7.0, 1.1, (12.0, -5.0))
        want = _outcome(loop_ransac, src, dst, iterations=300, seed=2)
        assert want != DegenerateSamplesError
        assert _outcome(ransac_homography, src, dst, iterations=300, seed=2) == want

    @pytest.mark.parametrize("models_per_chunk", [1, 2, 3, 7, None])
    def test_tied_counts_across_chunk_boundaries(self, monkeypatch, models_per_chunk):
        # Two planted groups of 12 under different transforms: every clean
        # sample of either group holds exactly 12 inliers, so the best count
        # ties between models that land in different chunks. With seed 1 the
        # first such model (sample 34) fits group B, the next ones (55, 58, 63,
        # 64) group A. At w = 1/2 the early exit fires at the first chunk
        # boundary past 71.4 samples.
        rng = np.random.default_rng(21)
        group_a = rng.uniform(0, 640, size=(12, 2))
        group_b = rng.uniform(0, 640, size=(12, 2))
        src = np.vstack([group_a, group_b])
        dst = np.vstack([group_a + (200.0, 0.0), _similarity(group_b, 90.0, 1.0, (0.0, 300.0))])
        if models_per_chunk is not None:
            monkeypatch.setattr(ransac, "_CHUNK_MODEL_POINTS", models_per_chunk * len(src))
        want = _outcome(loop_ransac, src, dst, iterations=200, seed=1)
        assert want[:2] == (12, np.repeat([False, True], 12).tobytes())
        assert want[3] == {1: 72, 2: 72, 3: 72, 7: 77, None: 200}[models_per_chunk]
        assert _outcome(ransac_homography, src, dst, iterations=200, seed=1) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_non_finite_coordinates(self, value, side):
        rng = np.random.default_rng(9)
        src = rng.uniform(0, 640, size=(30, 2))
        dst = _similarity(src, 4.0, 1.0, (10.0, 10.0))
        bad = src if side == "src" else dst
        bad[[3, 11, 17], [0, 1, 0]] = value
        want = _outcome(loop_ransac, src, dst, iterations=300, seed=1)
        assert want != DegenerateSamplesError
        assert _outcome(ransac_homography, src, dst, iterations=300, seed=1) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    def test_all_nan_degenerate(self):
        src = np.full((6, 2), np.nan)
        assert _outcome(loop_ransac, src, src, iterations=20) == DegenerateSamplesError
        assert _outcome(ransac_homography, src, src, iterations=20) == DegenerateSamplesError

    def test_no_consensus_raises(self, monkeypatch):
        # A positive threshold keeps each minimal model's own points, so no
        # consensus is forced here by scoring every model with no inlier.
        rng = np.random.default_rng(14)
        src = rng.uniform(0, 640, size=(30, 2))
        monkeypatch.setattr(ransac, "_inliers", lambda h, src, dst, threshold: np.zeros((len(h), 30), dtype=bool))
        with pytest.raises(RansacError, match="no sampled model holds an inlier") as info:
            ransac_homography(src, src + 5, iterations=20)
        assert info.type is RansacError

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_fewest_iterations(self, iterations):
        rng = np.random.default_rng(10)
        src = rng.uniform(0, 640, size=(25, 2))
        dst = _similarity(src, -6.0, 0.95, (30.0, 8.0))
        want = _outcome(loop_ransac, src, dst, iterations=iterations, seed=3)
        assert (want == ValueError) == (iterations == 0)
        assert _outcome(ransac_homography, src, dst, iterations=iterations, seed=3) == want

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"iterations": -5},
            {"iterations": 2.5},
            {"iterations": 100.0},
            {"seed": 1.5},
            {"reproj_threshold": 0.0},
            {"reproj_threshold": -1.0},
            {"reproj_threshold": float("nan")},
        ],
    )
    def test_bad_arguments_raise_value_error(self, kwargs):
        rng = np.random.default_rng(15)
        src = rng.uniform(0, 640, size=(25, 2))
        with pytest.raises(ValueError):
            ransac_homography(src, src + 5, **kwargs)

    @given(_planted_correspondences(), st.integers(1, 300), st.integers(0, 2**16), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_with_small_chunks(self, pairs, iterations, seed, models_per_chunk):
        # Small chunks let the early exit fire mid-run, between chunks.
        src, dst = pairs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ransac, "_CHUNK_MODEL_POINTS", models_per_chunk * len(src))
            want = _outcome(loop_ransac, src, dst, iterations=iterations, seed=seed)
            assert _outcome(ransac_homography, src, dst, iterations=iterations, seed=seed) == want

    @pytest.mark.parametrize("n", [4, 5, 7, 300])
    def test_draw_gives_distinct_in_range_indices(self, n):
        samples = ransac._draw(np.random.Generator(np.random.PCG64(n)), n, 3000)
        assert samples.shape == (3000, 4)
        assert samples.min() >= 0 and samples.max() < n
        assert (np.diff(np.sort(samples, axis=1), axis=1) > 0).all()
        if n == 4:
            assert (np.sort(samples, axis=1) == np.arange(4)).all()
        # The sequential skip rule: the k-th integer picks among the indices left.
        raw = np.random.Generator(np.random.PCG64(n)).integers(0, [n, n - 1, n - 2, n - 3], size=(3000, 4))
        want = []
        for row in raw:
            left = list(range(n))
            want.append([left.pop(r) for r in row])
        assert samples.tolist() == want
        # Every index is drawn, in every position, about equally often.
        counts = np.array([np.bincount(samples[:, k], minlength=n) for k in range(4)])
        if n <= 7:
            assert (np.abs(counts - 3000 / n) < 5 * np.sqrt(3000 / n)).all()

    def test_draw_is_deterministic_for_a_seed(self):
        a = ransac._draw(np.random.Generator(np.random.PCG64(5)), 50, 100)
        b = ransac._draw(np.random.Generator(np.random.PCG64(5)), 50, 100)
        c = ransac._draw(np.random.Generator(np.random.PCG64(6)), 50, 100)
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_inlier_threshold_is_strict_on_the_documented_error(self):
        # A threshold equal to a point's error, to the last bit, leaves it out;
        # the next float up takes it in. So the error's arithmetic is pinned.
        rng = np.random.default_rng(20)
        src = rng.uniform(0, 640, size=(50, 2))
        dst = _similarity(src, 6.0, 1.02, (9.0, -4.0)) + rng.normal(0.0, 5.0, size=(50, 2))
        idx = ransac._draw(np.random.Generator(np.random.PCG64(20)), 50, 40)
        h, fitted = ransac._fit(src[idx], dst[idx])
        for model in h[fitted]:
            errors, _ = _loop_errors(model, src, dst)
            for j, err in enumerate(errors.tolist()):
                at, above = (ransac._inliers(model[None], src[j : j + 1], dst[j : j + 1], t)[0, 0]
                             for t in (err, math.nextafter(err, math.inf)))
                assert not at and above

    def test_iterations_stop_after_the_first_chunk_on_all_inliers(self):
        rng = np.random.default_rng(18)
        src = rng.uniform(0, 640, size=(200, 2))
        dst = _similarity(src, 8.0, 1.02, (12.0, -7.0))
        res = ransac_homography(src, dst, iterations=2000)
        assert res.inlier_count == 200
        assert res.iterations == ransac._CHUNK_MODEL_POINTS // 200 < 2000

    def test_iterations_run_to_the_cap_at_a_low_inlier_ratio(self):
        rng = np.random.default_rng(19)
        src = rng.uniform(0, 640, size=(500, 2))
        dst = rng.uniform(0, 640, size=(500, 2))
        dst[:20] = _similarity(src[:20], 8.0, 1.02, (12.0, -7.0))  # 4% inliers
        res = ransac_homography(src, dst, iterations=2000)
        # Even w = 20/500 asks for about 1.8 million samples.
        assert res.inlier_count <= 20 and res.iterations == 2000

    def test_peak_memory_on_8000_correspondences(self):
        # Scoring chunks are sized by models x correspondences; fixed 128-model
        # chunks peak near 49 MiB here.
        rng = np.random.default_rng(12)
        src = rng.uniform(0, 640, size=(8000, 2))
        dst = _similarity(src, 10.0, 1.0, (20.0, 0.0))
        outliers = rng.random(8000) < 0.5
        dst[outliers] = rng.uniform(0, 640, size=(int(outliers.sum()), 2))
        tracemalloc.start()
        try:
            res = ransac_homography(src, dst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.inlier_count >= int((~outliers).sum())
        assert peak <= 16 * 2**20


class TestMatchImages:
    @pytest.fixture(scope="class")
    def texture(self):
        return synthetic_texture(640, 512, 3)

    def test_self_match(self, texture):
        res = match_images(texture, texture)
        assert res.near_duplicate
        assert res.inliers >= 15
        assert res.inliers <= res.survivors <= res.putative

    def test_rotated_shifted_copy(self, texture):
        warped = warp_rigid(texture, 10.0, (20.0, 0.0))
        start = time.monotonic()
        res = match_images(texture, warped)
        elapsed = time.monotonic() - start
        assert res.near_duplicate
        assert res.inliers >= 15
        assert elapsed < 5.0

    def test_unrelated_noise(self, texture):
        res = match_images(texture, noise_image(640, 512, 77))
        assert not res.near_duplicate
        assert res.inliers < 15

    def test_symmetric_decision_on_fixtures(self, texture):
        warped = warp_rigid(texture, 6.0, (-15.0, 10.0))
        noise = noise_image(640, 512, 13)
        for other in (warped, noise):
            ab = match_images(texture, other).near_duplicate
            ba = match_images(other, texture).near_duplicate
            assert ab == ba

    def test_recovered_homography_matches_planted_transform(self, texture):
        angle, shift = 10.0, (20.0, 0.0)
        warped = warp_rigid(texture, angle, shift)
        res = match_images(texture, warped)
        h_mat = np.array(res.homography).reshape(3, 3)
        pts = np.array([(100.0, 100.0), (500.0, 120.0), (320.0, 400.0)])
        cy, cx = (texture.height - 1) / 2.0, (texture.width - 1) / 2.0
        want = rigid_points(pts, angle, shift, (cx, cy))
        proj = np.hstack([pts, np.ones((3, 1))]) @ h_mat.T
        got = proj[:, :2] / proj[:, 2:3]
        assert np.abs(got - want).max() < 2.0  # nearest-neighbor warp quantization

    def test_result_funnel_invariant(self):
        with pytest.raises(ValueError):
            MatchResult(putative=5, survivors=9, inliers=2, homography=None, near_duplicate=False)

    def test_no_consensus_reports_zero_inliers(self, texture, monkeypatch):
        # A positive threshold always leaves a minimal model its own points,
        # so RANSAC's no-consensus error is stubbed in.
        def no_consensus(*args, **kwargs):
            raise RansacError("no sampled model holds an inlier")

        monkeypatch.setattr(pipeline, "ransac_homography", no_consensus)
        warped = warp_rigid(texture, 10.0, (20.0, 0.0))
        res = match_images(texture, warped)
        assert res.survivors >= 4
        assert (res.inliers, res.homography, res.near_duplicate) == (0, None, False)

    @pytest.mark.parametrize("threshold", [0.0, -3.0, float("nan")])
    def test_non_positive_threshold_rejected(self, texture, threshold):
        with pytest.raises(ValueError, match="reproj_threshold"):
            match_images(texture, texture, MatchConfig(reproj_threshold_px=threshold))

    @pytest.mark.parametrize(
        "seed, angle, shift",
        [
            (3, 10.0, (20.0, 0.0)),  # the golden "rotated" pair
            (3, 0.0, (-15.0, 10.0)),  # the golden "shifted" pair
            (115, -6.0, (14.0, 3.0)),
            (140, -2.0, (-5.0, -16.0)),
            (147, 4.0, (-16.0, -4.0)),
        ],
    )
    def test_rigid_pairs_recover_the_planted_transform(self, seed, angle, shift):
        # The refit replaces the minimal model whenever it holds 4 inliers.
        # Keeping it only when it does not lower the count leaves the last
        # three pairs 4.3, 7.7 and 7.3 px off; the rule kept here stays
        # near 0.1 px.
        image = synthetic_texture(640, 512, seed)
        res = match_images(image, warp_rigid(image, angle, shift))
        assert res.near_duplicate
        gx, gy = np.meshgrid(np.linspace(160, 480, 5), np.linspace(128, 384, 5))
        grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
        proj = np.hstack([grid, np.ones((25, 1))]) @ np.array(res.homography).reshape(3, 3).T
        want = rigid_points(grid, angle, shift, ((image.width - 1) / 2.0, (image.height - 1) / 2.0))
        assert np.abs(proj[:, :2] / proj[:, 2:] - want).max() < 0.5

    def test_negative_max_features_rejected(self, texture):
        with pytest.raises(ValueError):
            match_images(texture, texture, MatchConfig(max_features=-1))

    def test_uniform_images_empty_result(self):
        img = GrayImage.from_array(np.full((64, 64), 50, dtype=np.uint8))
        res = match_images(img, img)
        assert res.putative == 0 and not res.near_duplicate


_NAN, _INF = float("nan"), float("inf")


class TestMatchConfig:
    def test_lowest_values_accepted(self):
        config = MatchConfig(ratio=0.0, max_features=0, fast_threshold=0, min_inliers=0, ransac_iterations=1)
        assert config.ratio == 0.0 and MatchConfig(reproj_threshold_px=1e-300).reproj_threshold_px > 0

    @pytest.mark.parametrize("ratio", [-1.0, -1e-300, _NAN, -_INF])
    def test_negative_or_nan_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            MatchConfig(ratio=ratio)

    @pytest.mark.parametrize("threshold", [0.0, -0.0, -3.0, _NAN, -_INF])
    def test_non_positive_or_nan_reproj_threshold_rejected(self, threshold):
        # It raised only once a pair reached RANSAC.
        with pytest.raises(ValueError, match="reproj_threshold"):
            MatchConfig(reproj_threshold_px=threshold)

    @pytest.mark.parametrize("value", [-1, -5, _NAN])
    def test_negative_max_features_rejected(self, value):
        with pytest.raises(ValueError, match="max_features"):
            MatchConfig(max_features=value)

    @pytest.mark.parametrize("value", [-1, -20, _NAN])
    def test_negative_fast_threshold_rejected(self, value):
        with pytest.raises(ValueError, match="fast_threshold"):
            MatchConfig(fast_threshold=value)

    @pytest.mark.parametrize("value", [-1, -5, _NAN])
    def test_negative_min_inliers_rejected(self, value):
        with pytest.raises(ValueError, match="min_inliers"):
            MatchConfig(min_inliers=value)

    @pytest.mark.parametrize("value", [0, -1, _NAN])
    def test_ransac_iterations_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="ransac_iterations"):
            MatchConfig(ransac_iterations=value)

    @pytest.mark.parametrize("name", ["max_features", "fast_threshold", "ransac_iterations", "seed", "min_inliers"])
    @pytest.mark.parametrize("value", [2.5, 100.0, "20", None])
    def test_non_integer_count_rejected(self, name, value):
        # 2.5 used to pass here and fail in numpy or a slice, or, as min_inliers, not at all.
        with pytest.raises(ValueError, match=name):
            MatchConfig(**{name: value})

    def test_integer_types_accepted(self):
        config = MatchConfig(max_features=np.int64(100), fast_threshold=np.uint8(20), seed=np.int32(3), min_inliers=True)
        assert (config.max_features, config.fast_threshold, config.seed) == (100, 20, 3)

    def test_negative_seed_rejected(self):
        # RANSAC's generator refuses it, but only once a pair reached RANSAC.
        with pytest.raises(ValueError, match="seed"):
            MatchConfig(seed=-1)
