from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imagefix import noise_image, rigid_points, synthetic_texture, warp_rigid
from firescene.features import (
    GrayImage,
    MatchConfig,
    MatchResult,
    PATTERN,
    PATTERN_SEED,
    describe,
    detect,
    generate_pattern,
    hamming_matrix,
    match,
    match_images,
    ransac_homography,
)
from firescene.features import pipeline, ransac
from firescene.features.describe import hamming_distance
from firescene.features.detect import (
    BORDER_MARGIN,
    CIRCLE,
    FAST_ARC,
    HARRIS_K,
    HARRIS_WINDOW,
    ORIENTATION_RADIUS,
    ImageTooSmallError,
    Keypoint,
    _box_sum,
    _fast_corner_mask,
    _harris_response,
    _HARRIS_SUM_BOUND,
    _intensity_centroid_angle,
    _moments,
    _nms_first_wins,
    _sobel,
)
from firescene.features.matching import _BLOCK_ROWS
from firescene.features.ransac import DegenerateSamplesError, RansacError, _dlt


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
        assert detect(img) == []

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
        assert detect(img) == detect(img)


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
def _gray_arrays(draw, lo, hi):
    h, w = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
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


class TestDetectOracle:
    @given(_gray_arrays(33, 64), st.sampled_from(_THRESHOLDS))
    @settings(max_examples=150, deadline=None)
    def test_fast_mask_matches_roll_oracle(self, img, threshold):
        assert np.array_equal(_fast_corner_mask(img, threshold, 3), _roll_fast_corner_mask(img, threshold, 3))

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
        img = HARRIS_IMAGES[name]()
        gx, gy = _sobel(img)
        want_gx, want_gy = _float_sobel(img)
        assert gx.dtype == gy.dtype == np.int32
        assert np.array_equal(gx, want_gx) and np.array_equal(gy, want_gy)
        response = _harris_response(img)
        assert response.dtype == np.float64
        assert response.tobytes() == _float_harris_response(img).tobytes()

    def test_window_sums_reach_the_int32_bound(self):
        gx, gy = _sobel(_stripes(40, 50))
        assert np.all(np.abs(gx[:, 1:-1]) == 4 * 255) and not gy.any()
        sxx = _box_sum(gx * gx, HARRIS_WINDOW)
        assert sxx.dtype == np.int32 and sxx.max() == _HARRIS_SUM_BOUND < 2**31

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
        # MiB here; circle words and int32 sums peak near 51 MiB.
        img = noise_image(1280, 1024, 5)
        tracemalloc.start()
        try:
            kps = detect(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kps) == 8000
        assert peak <= 64 * 2**20


class TestDescribe:
    def test_deterministic(self):
        img = synthetic_texture(128, 128, 4)
        kps = detect(img)
        d1, k1 = describe(img, kps)
        d2, k2 = describe(img, kps)
        assert np.array_equal(d1, d2)
        assert k1 == k2

    def test_alignment_one_to_one(self):
        img = synthetic_texture(128, 128, 4)
        kps = detect(img)
        desc, kept = describe(img, kps)
        assert len(desc) == len(kept)
        assert desc.shape[1] == 32  # 256 bits packed

    def test_border_keypoints_filtered_not_fatal(self):
        img = synthetic_texture(64, 64, 4)
        fake = [Keypoint(x=2.0, y=2.0, response=1.0, angle=0.0)]
        desc, kept = describe(img, fake)
        assert len(desc) == 0 and kept == []

    def test_180_rotation_with_compensation(self):
        # Empirical bound frozen after an oracle run: compensated descriptors
        # match exactly on this fixture (a 180-degree turn permutes pixels and
        # negates every integer pattern offset), so the <= 64 bound is loose.
        img = synthetic_texture(256, 256, 5)
        rot = GrayImage.from_array(np.ascontiguousarray(np.rot90(img.pixels, 2)))
        kps = detect(img)[:100]
        desc, kept = describe(img, kps)
        h, w = img.pixels.shape
        rotated_kps = []
        for kp in kept:
            rx, ry = w - 1 - kp.x, h - 1 - kp.y
            ang = _intensity_centroid_angle(rot.pixels, int(ry), int(rx))
            rotated_kps.append(Keypoint(x=rx, y=ry, response=kp.response, angle=ang))
        rdesc, rkept = describe(rot, rotated_kps)
        assert len(rdesc) == len(desc)
        dists = [hamming_distance(desc[i], rdesc[i]) for i in range(len(desc))]
        assert max(dists) <= 64

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

    def test_all_bits_differing_reach_256(self):
        a = np.zeros((_BLOCK_ROWS + 2, 32), dtype=np.uint8)
        b = np.full((3, 32), 0xFF, dtype=np.uint8)
        m = hamming_matrix(a, b)
        assert m.dtype == np.uint16
        assert np.all(m == 256) and hamming_distance(a[0], b[0]) == 256


class TestMatch:
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
        h, fitted = _dlt(src[None], dst[None])
        assert h.shape == (1, 3, 3) and fitted.tolist() == [True]
        proj = np.hstack([src, np.ones((4, 1))]) @ h[0].T
        errs = np.hypot(proj[:, 0] / proj[:, 2] - dst[:, 0], proj[:, 1] / proj[:, 2] - dst[:, 1])
        assert errs.max() < 1e-9

    def test_minimal_fit_three_collinear_rejected(self):
        src = np.array([(0.0, 0.0), (100.0, 100.0), (250.0, 250.0), (30.0, 400.0)])
        dst = _similarity(src, 5.0, 1.0, (3.0, 4.0))
        h, fitted = _dlt(src[None], dst[None])
        assert fitted.tolist() == [False] and np.isnan(h).all()

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


def _loop_normalize(pts):
    """Hartley normalization of (m, 2) points: the similarity, its inverse and the moved points."""
    centroid = pts.mean(axis=0)
    moved = pts - centroid
    dist = np.sqrt((moved * moved).sum(axis=1)).mean()
    scale = np.sqrt(2.0) / dist if dist > 0 else 1.0
    t = np.array([[scale, 0.0, -scale * centroid[0]], [0.0, scale, -scale * centroid[1]], [0.0, 0.0, 1.0]])
    inv = np.array([[1.0 / scale, 0.0, centroid[0]], [0.0, 1.0 / scale, centroid[1]], [0.0, 0.0, 1.0]])
    return t, inv, moved * scale


def _loop_dlt(src, dst):
    """One normalized DLT fit on (m, 2) points by SVD, or None."""
    t_src, _, s = _loop_normalize(src)
    _, inv_dst, d = _loop_normalize(dst)
    a = np.zeros((2 * len(src), 9))
    a[0::2, 0:2] = s
    a[0::2, 2] = 1.0
    a[0::2, 6:8] = -s * d[:, 0:1]
    a[0::2, 8] = -d[:, 0]
    a[1::2, 3:5] = s
    a[1::2, 5] = 1.0
    a[1::2, 6:8] = -s * d[:, 1:2]
    a[1::2, 8] = -d[:, 1]
    if len(a) < 9:
        a = np.vstack([a, np.zeros((9 - len(a), 9))])
    if not np.isfinite(a).all():
        return None
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    if sv[-2] <= 1e-12 * sv[0]:
        return None
    h = inv_dst @ vt[-1].reshape(3, 3) @ t_src
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


def _loop_solve(src, dst):
    """One minimal fit on 4 points as an 8x8 system with h[2, 2] = 1, or None where the SVD must take over."""
    t_src, _, s = _loop_normalize(src)
    _, inv_dst, d = _loop_normalize(dst)
    a, b = np.zeros((8, 8)), np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(s, d)):
        a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -x * u, -y * u]
        a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -x * v, -y * v]
        b[2 * i : 2 * i + 2] = u, v
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    try:
        h8 = np.linalg.solve(a[None], b[None, :, None])[0, :, 0]
    except np.linalg.LinAlgError:
        return None
    hn = np.append(h8, 1.0).reshape(3, 3)
    for (x, y), (u, v) in zip(s, d):
        w = hn[2, 0] * x + hn[2, 1] * y + 1.0
        miss_u = abs((hn[0, 0] * x + hn[0, 1] * y + hn[0, 2]) / w - u)
        miss_v = abs((hn[1, 0] * x + hn[1, 1] * y + hn[1, 2]) / w - v)
        if not (miss_u <= 1e-9 and miss_v <= 1e-9):
            return None
    h = inv_dst @ hn @ t_src
    if abs(h[2, 2]) < 1e-12:
        return None
    return h / h[2, 2]


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


def _loop_inliers(h, src, dst, threshold):
    """Forward reprojection error below the threshold, as (px - u*w) / w and (py - v*w) / w."""
    x, y, u, v = src[:, 0], src[:, 1], dst[:, 0], dst[:, 1]
    rows = np.stack([x, y, np.ones(len(x)), -u * x, -u * y, -u, -v * x, -v * y, -v])
    coef = np.zeros((3, 9))
    coef[0, 0:3], coef[0, 3:6] = h[0], h[2]
    coef[1, 0:3], coef[1, 6:9] = h[1], h[2]
    coef[2, 0:3] = h[2]
    ex, ey, w = coef @ rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        errors = np.sqrt((ex / w) ** 2 + (ey / w) ** 2)
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
        if not (_loop_any_three_collinear(src[idx]) or _loop_any_three_collinear(dst[idx])):
            h = _loop_solve(src[idx], dst[idx])
            if h is None:
                h = _loop_dlt(src[idx], dst[idx])
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
    refit = _loop_dlt(src[best_mask], dst[best_mask]) if best_count >= 4 else None
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
    def test_stacked_dlt_matches_per_sample_fit(self, m):
        rng = np.random.default_rng(m)
        src = rng.uniform(0, 640, size=(300, m, 2))
        dst = _similarity(src.reshape(-1, 2), 9.0, 1.1, (5.0, -3.0)).reshape(src.shape)
        dst += rng.normal(0.0, 3.0, size=dst.shape)
        src[10:20, 2] = src[10:20, 1]  # rank-deficient
        src[20:30, :3, 1] = 50.0  # three collinear points
        src[30:40, 0, 0] = np.nan
        dst[40:50, 1, 1] = np.inf
        fits = list(map(_loop_dlt, src, dst))
        assert 150 < sum(fit is not None for fit in fits) < 300
        h, fitted = _dlt(src, dst)
        assert fitted.tolist() == [fit is not None for fit in fits]
        assert h[fitted].tobytes() == np.array([fit for fit in fits if fit is not None]).tobytes()
        assert np.isnan(h[~fitted]).all()

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
        monkeypatch.setattr(ransac, "_inliers", lambda h, rows, threshold: np.zeros((len(h), 30), dtype=bool))
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

    def test_solve_and_svd_agree_on_their_own_points(self):
        rng = np.random.default_rng(16)
        src = rng.uniform(0, 640, size=(500, 4, 2))
        dst = _similarity(src.reshape(-1, 2), 11.0, 0.9, (25.0, 6.0)).reshape(src.shape)
        dst += rng.normal(0.0, 3.0, size=dst.shape)  # noisy matches: general homographies
        keep = ~(ransac._collinear(src) | ransac._collinear(dst))
        src, dst = src[keep], dst[keep]
        h_solve, solved = ransac._solve(src, dst)
        h_svd, fitted = _dlt(src, dst)
        both = solved & fitted
        assert both.sum() > 0.95 * len(src)

        def project(h, pts):
            proj = np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2) @ h.transpose(0, 2, 1)
            return proj[..., :2] / proj[..., 2:]

        a, b = project(h_solve[both], src[both]), project(h_svd[both], src[both])
        assert np.abs(a - b).max() < 1e-9
        assert np.abs(a - dst[both]).max() < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite coordinates on purpose
    def test_singular_and_non_finite_samples_fall_back_to_svd(self, monkeypatch):
        rng = np.random.default_rng(17)
        src = rng.uniform(0, 640, size=(8, 4, 2))
        dst = _similarity(src.reshape(-1, 2), 7.0, 1.05, (4.0, -9.0)).reshape(src.shape)
        # Sample 1 is a square whose map sends its centroid to infinity, so
        # h[2, 2] = 0 in normalized coordinates. Its normalized entries are
        # small integers, so the 8x8 system is exactly singular and fails the
        # whole stacked solve; the SVD still fits it.
        src[1] = [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]
        dst[1] = [(2.0, 8.0), (4.0, 6.0), (4.0, 8.0), (2.0, 6.0)]
        src[3, 2, 0] = np.nan
        dst[4, 1, 1] = np.inf
        lapack_inputs = []

        def recording(fn):
            def call(a, *args, **kwargs):
                lapack_inputs.append(np.asarray(a).copy())
                return fn(a, *args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "solve", recording(np.linalg.solve))
        monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
        _, solved = ransac._solve(src, dst)
        h_fit, fitted = ransac._fit(src, dst)
        assert lapack_inputs and all(np.isfinite(a).all() for a in lapack_inputs)
        assert solved.tolist() == [True, False, True, False, False, True, True, True]
        assert fitted.tolist() == [True, True, True, False, False, True, True, True]
        for i in np.flatnonzero(fitted):
            want = _loop_solve(src[i], dst[i])
            want = _loop_dlt(src[i], dst[i]) if want is None else want
            assert h_fit[i].tobytes() == want.tobytes()
        assert _loop_solve(src[1], dst[1]) is None
        hp = np.hstack([src[1], np.ones((4, 1))]) @ h_fit[1].T
        assert np.abs(hp[:, :2] / hp[:, 2:] - dst[1]).max() < 1e-9

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

    def test_uniform_images_empty_result(self):
        img = GrayImage.from_array(np.full((64, 64), 50, dtype=np.uint8))
        res = match_images(img, img)
        assert res.putative == 0 and not res.near_duplicate
