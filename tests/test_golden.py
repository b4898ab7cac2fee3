"""Golden-output lock: committed SHA-256 digests of the package's outputs.

Each labeling frame is built here from seeded numpy and run through
``analyze_frame``; the test hashes ``FrameAnalysis.to_json()``,
``AnswerSheet.to_json()`` and ``rag_summary(...).as_text()``. Each matching
pair from ``imagefix`` is run through ``match_images`` and its
``MatchResult.as_dict()`` hashed as canonical JSON, and the keypoints
``detect`` finds on the texture and on each pair's second image are hashed
as the ``float.hex`` of their ``(x, y, response, angle)``, in order.

A refactor keeps every digest. A deliberate change of output renews the
affected digests and says why in CHANGES.md; print the new ones, and the
funnels, with ``python tests/test_golden.py``.

The match digests must hold whatever kernels numpy and OpenBLAS pick for the
CPU: ``test_match_results_identical_across_cpu_kernels`` reruns the pairs with
other kernels forced.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from firescene.features import (
    MatchConfig,
    MatchResult,
    RansacError,
    describe,
    detect,
    match,
    match_images,
    ransac_homography,
)
from firescene.labeler import analyze_frame, answer_sheet, rag_summary
from firescene.raster import ThermalRaster
from imagefix import noise_image, synthetic_texture, warp_rigid

W, H = 640, 512


def _background(rng: np.random.Generator, shape=(H, W)) -> np.ndarray:
    """Ambient ground: a left-to-right gradient plus sensor noise."""
    h, w = shape
    return 18.0 + rng.uniform(10.0, 40.0) * np.arange(w) / w + rng.normal(0.0, 2.5, (h, w))


def _disk(temps: np.ndarray, cx: float, cy: float, r: float, peak: float, rim: float = 230.0) -> None:
    """Cone falling from ``peak`` at the centre to ``rim`` at radius ``r``."""
    ys, xs = np.ogrid[: temps.shape[0], : temps.shape[1]]
    d = np.hypot(xs - cx, ys - cy)
    inside = d <= r
    temps[inside] = peak - (peak - rim) * d[inside] / r


def _disks(rng: np.random.Generator, temps: np.ndarray, n: int, r_range=(6, 22), peaks=(300.0, 800.0),
           rim: float = 230.0) -> None:
    h, w = temps.shape
    for _ in range(n):
        r = float(rng.integers(*r_range))
        _disk(temps, rng.uniform(r, w - r), rng.uniform(r, h - r), r, rng.uniform(*peaks), rim)


def _scatter(rng: np.random.Generator, temps: np.ndarray, fraction: float, lo: float, hi: float) -> None:
    """Set ``fraction`` of the pixels, drawn uniformly, to temperatures in [lo, hi)."""
    hit = rng.random(temps.shape) < fraction
    temps[hit] = rng.uniform(lo, hi, int(hit.sum()))


def typical(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    temps = _background(rng)
    _scatter(rng, temps, 0.01, 200.0, 420.0)  # embers
    _disks(rng, temps, int(rng.integers(2, 7)))
    return temps


def cold(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    temps = _background(rng)
    _disks(rng, temps, 3, r_range=(15, 25), peaks=(120.0, 190.0), rim=60.0)  # warm, never 200 C
    return temps


def speckle(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 3])
    temps = _background(rng)
    _scatter(rng, temps, 0.30, 200.0, 280.0)
    _disks(rng, temps, 4, r_range=(20, 26))
    return temps


def ember_field(seed: int, alternating: bool) -> np.ndarray:
    """50 x 40 embers of 5 x 5 px on a 12 px grid: about 2000 hotspots."""
    rng = np.random.default_rng([seed, 4])
    temps = _background(rng)
    gy, gx = np.mgrid[0:40, 0:50]
    cy = 16 + 12 * gy + rng.integers(-1, 2, gy.shape)
    cx = 20 + 12 * gx + rng.integers(-1, 2, gx.shape)
    pk = rng.uniform(290.0, 310.0, gy.shape)
    if alternating:
        pk += np.where((gx + gy) % 2 == 0, 0.0, 400.0)
    for y, x, p in zip(cy.ravel(), cx.ravel(), pk.ravel()):
        temps[y - 2 : y + 3, x - 2 : x + 3] = p - 15.0
        temps[y, x] = p
    return temps


def plateaus(seed: int) -> np.ndarray:
    """Disks clipped at one shared temperature: peaks tie within and across components."""
    rng = np.random.default_rng([seed, 5])
    temps = _background(rng)
    _disks(rng, temps, 6, r_range=(8, 20), peaks=(500.0, 700.0))
    return np.minimum(temps, 450.0)


def levels(seed: int, shape) -> np.ndarray:
    """Few temperature levels, so the hottest pixel ties everywhere."""
    rng = np.random.default_rng([seed, 6])
    return rng.choice([20.0, 210.0, 300.0, 450.0], size=shape, p=[0.55, 0.25, 0.1, 0.1])


def dropouts(seed: int) -> np.ndarray:
    """Typical frame with invalid pixels, some inside the fires."""
    temps = typical(seed)
    rng = np.random.default_rng([seed, 7])
    temps[rng.random(temps.shape) < 0.02] = np.nan
    temps[rng.random(temps.shape) < 0.001] = 5000.0  # implausible, masked out
    return temps


def stripes(seed: int) -> np.ndarray:
    """Vertical hot stripes joined by the bottom row: one comb-shaped component."""
    rng = np.random.default_rng([seed, 8])
    temps = _background(rng, (96, 160))
    temps[:-1, ::2] = rng.uniform(210.0, 600.0, temps[:-1, ::2].shape)
    temps[-1, :] = 300.0
    return temps


def blaze(seed: int) -> np.ndarray:
    """Every pixel burning: a single component covering the frame."""
    rng = np.random.default_rng([seed, 9])
    return rng.uniform(200.0, 900.0, (128, 160))


def border(seed: int) -> np.ndarray:
    """Fires touching every edge and corner of the frame."""
    rng = np.random.default_rng([seed, 10])
    temps = _background(rng, (96, 128))
    temps[:3, :] = 260.0
    temps[:, -4:] = 330.0
    temps[-6:, :10] = 410.0
    temps[40:60, :5] = rng.uniform(200.0, 500.0, (20, 5))
    return temps


# name -> (temperatures, AGL in metres or None)
FRAMES = {
    "typical-0": (lambda: typical(0), 60.0),
    "typical-1": (lambda: typical(1), 95.0),
    "typical-2": (lambda: typical(2), 140.0),
    "typical-3": (lambda: typical(3), 30.0),
    "typical-4": (lambda: typical(4), 220.0),
    "cold-0": (lambda: cold(0), 80.0),
    "cold-1": (lambda: cold(1), 160.0),
    "no-agl": (lambda: typical(5), None),
    "zero-agl": (lambda: typical(6), 0.0),
    "speckle-30": (lambda: speckle(0), 26.0),
    "embers-similar": (lambda: ember_field(0, alternating=False), 300.0),
    "embers-alternating": (lambda: ember_field(1, alternating=True), 300.0),
    "plateau-ties": (lambda: plateaus(0), 70.0),
    "levels-37x53": (lambda: levels(0, (37, 53)), 12.0),
    "levels-1x80": (lambda: levels(1, (1, 80)), 12.0),
    "levels-200x160": (lambda: levels(2, (200, 160)), 20.0),
    "dropouts": (lambda: dropouts(7), 110.0),
    "stripes": (lambda: stripes(0), 50.0),
    "blaze": (lambda: blaze(0), 100.0),
    "border": (lambda: border(0), 40.0),
}


def _texture():
    return synthetic_texture(W, H, 3)


# name -> (image a, image b)
PAIRS = {
    "rotated": lambda: (_texture(), warp_rigid(_texture(), 10.0, (20.0, 0.0))),
    "shifted": lambda: (_texture(), warp_rigid(_texture(), 0.0, (-15.0, 10.0))),
    "unrelated": lambda: (_texture(), synthetic_texture(W, H, 11)),
    "noise": lambda: (_texture(), noise_image(W, H, 77)),
}


# name -> image
DETECT_IMAGES = {"texture": _texture} | {name: (lambda make=make: make()[1]) for name, make in PAIRS.items()}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frame_digests(name: str) -> tuple[str, str, str]:
    make, agl = FRAMES[name]
    raster = ThermalRaster.from_array(make())
    analysis = analyze_frame(raster, agl_m=agl, frame_id=name)
    return (
        _sha(analysis.to_json()),
        _sha(answer_sheet(analysis).to_json()),
        _sha(rag_summary(raster).as_text()),
    )


def pair_json(name: str) -> str:
    return json.dumps(match_images(*PAIRS[name]()).as_dict(), sort_keys=True)


def pair_digest(name: str) -> str:
    return _sha(pair_json(name))


def pair_funnel(name: str) -> tuple[int, int, bool]:
    res = match_images(*PAIRS[name]())
    return res.survivors, res.inliers, res.near_duplicate


def keypoint_digest(name: str) -> str:
    kps = detect(DETECT_IMAGES[name]())
    return _sha("\n".join(" ".join(map(float.hex, (k.x, k.y, k.response, k.angle))) for k in kps))


# (FrameAnalysis JSON, AnswerSheet JSON, RAG text)
GOLDEN_FRAMES = {
    "typical-0": (
        "2ba9f604b25a624d7d7396a818b978498cc6ca7fee70e744ec88492c068ddd22",
        "d47f5824978b592967903b5f45d492cf2cf1fb9718bec68b962fce7745e0b47a",
        "e5eeb83e3734e7bfce7f8e9f6c692871caf6f3f0c11535b63abbcdac0af2d5e1",
    ),
    "typical-1": (
        "14ceff3fe9a6e0e9a9cd176c16d1d0519bdda29c827f1de86e1c3da5dead7742",
        "94871ffadaa0639b75c332955d373b48cfd6a1f38d3ddaec2365f47039b7552e",
        "ec5f2cdd9b14afc7df453956f66d644ee34bb36a5d71a342eebbbb6cf214b359",
    ),
    "typical-2": (
        "323f003f0bf7bb3d7a79cac36339bb02b3891a38636abafd2b7c401b33cb204f",
        "dc9ebe48c73cb86fbd14950b8bfce4b9446f7b5148250f4f7e66389ee294c693",
        "d22a2007d40d97c6b667aa74b96e28904ea401b43673f581aa97ea043e7791ba",
    ),
    "typical-3": (
        "770207e2cf09adfb8aee0b4a651235f15ef103c47be7fc79033d655b28d79d3a",
        "3202884233a8cc8863f1617ab1da190b5316306a7d48dc9fec09d786964df85b",
        "98580ea4eaff1473cb6002db05e434c72c1f884b287d4f21dd9fe9fd192f2ced",
    ),
    "typical-4": (
        "e3369bce32f6255be951bde9a4e28174d78ee32fcc44e52160b94437f5cef813",
        "b88f8a8e4b7963a728592e9ec60c43d381de7062ead47f59f58078f5f433ef58",
        "d03e841e9dded72312a0e9465316284f5cfbdc62d8e0508c160dab278933c8bb",
    ),
    "cold-0": (
        "e5d7296fdf5c2996ccf152b39c3ddf5def54bd2288a70f09da71d71cd75b519d",
        "581a7de65d4b56d42feb76b1a04d5951498d4cd070ea2baa58e32ef50e297b5d",
        "38f63babc4aeef250936b74b7f92060b0131ee80c2135a59260d84fa8e9e2e49",
    ),
    "cold-1": (
        "302b4111ae4b0e1d1be36aa141152f3ca0a4201a1e45dc97b3ed35810ffcb335",
        "cb40fd0c0f9319265ec59426e6e480dd1987ba2aeb2178f8e17e06c7195bdc18",
        "9192caabd95a6ca1722e3ae5165722c6c6f393c7e66667491cd03c829957a4b0",
    ),
    "no-agl": (
        "b9cc24d636bb713ae422d705cfb6884c904970e70a5b2d3e20d315eadf06dc29",
        "cce3bc5e647a394635e7bf0ccb98590bac528165f2ad9ac7c43a3230fa0b5d1d",
        "cda0b6b54941481d844e619cd49068848a0f98071099ec05ef8dcaa669a5b60d",
    ),
    "zero-agl": (
        "eb1c3f23c6801f526ff5038fc85fbb355aebe7d50a46155c49678e971a6ef0a7",
        "f4593717aac723e11e0679ef7b2cecb0263eeb984515277f1bd06b9b6b141713",
        "c752f367701d997018baced3e7f2a31a04b9669877a46d7fabb655488a304cf8",
    ),
    "speckle-30": (
        "1065a39d1f8c04a677046f66889e44d0f98e4f99251fafc7d11ee9688b4f3f5b",
        "3338befd2c78b5d158f402d8e5238c0d2b4912fa806e9639f8a92032bc6b8698",
        "9fc75b4621d5d08f1f210531f7ef9eb0dd17c1cf22cf7d6bc892f8fb58044731",
    ),
    "embers-similar": (
        "dffcb4d38323cb9e0116203595747ac8e71a968b9a43ee7961ff59e603947e99",
        "8dcc2234a0ca4854435c7f72389d27b88875e0af3741a766f2e4cbff0f238ae1",
        "7ac4535382c90d550fd5ee40d2a3931a484787b17a275ce91ce43acce1112ae6",
    ),
    "embers-alternating": (
        "f3648466aefa70912f9ceb31c6e8cf2e69eba2a1db8ef76380f6614b12113717",
        "7388bb23716548312ab092126e074e94fdc842b561a746e46ef2251a8f05fc7d",
        "b568835bd0ab83a08981129bdf405ad4f506bb6800ec1c938567517b45fcfb9e",
    ),
    "plateau-ties": (
        "015eb12bfcf4a3ce75315e56465b1ab54a656e6bf877b4729a1aec449f53ce2d",
        "93ab9454a6effd1c8eb16363d457c5d4b619729d8bb59c8171a0f9e1ea91433b",
        "8aec781237f8b60c887b13ad2fd8f46a1c673f97cbd7fffe02b5d94f66b0ed20",
    ),
    "levels-37x53": (
        "ba4f6007e4bb2386011d00000d5e04e70f37350ea8e5f76fc470e5431ed5acab",
        "f9d068924f077690792edbe5c8916ed9d9e9198d89858f57a127234e87a699c4",
        "bd0d8b09d7b003f5fe680ab02e42f4631ea9e01a7908eedcea056aa8986e3c09",
    ),
    "levels-1x80": (
        "e1a2cae7e47bf5010a6bd86ba35aab781da2ec1e7e3b182ac23dd604dd51442a",
        "bc03e108dbbe29a6f63ac8f6b09e2527f32b4ae8f1c48c099a6cd3ad26b6c3d1",
        "3c9555e9d679b5f7da5b87cfccf69720ad2546a1ba5f4f9c95a6c15b601aa6d2",
    ),
    "levels-200x160": (
        "90187d82d90493af0dbba8b0ac80abf3e21cfbb4abfe9b9a16df1e333239065e",
        "efe2c6e4013fa5dbca726bd44668194da3da8131f3ca03827eefaa79b194cdea",
        "74ab6631bcbe855ecbc4b8a7323747b5120c0c0abb5e604a3fcc9aa5b61d48c0",
    ),
    "dropouts": (
        "8a10459655f43e586a39abe912cb05552d62d0f2eee05eed2873589cc3ef297d",
        "4fd564cb66be02ec4c3b60ba86611e2693e4d80adbd47b446b042c86b8e49154",
        "86d57847d4343438ce50593fc8474462ba78fbcdf692cc40015d2e09ab719b50",
    ),
    "stripes": (
        "7fc778c30ea273368023e5edeeef7c35e59ef9ce6c2aa555223efe9c26125224",
        "822e9d54f1a778e3865939cd0f55c45d5ea825b6de23c7acec7e26e2b96682a2",
        "85dd3775621f8c81da4d16ff7565ede9c69b5058aa766f23579f6225ce3b2709",
    ),
    "blaze": (
        "b999e07f5e652d4fcab702fcf5635ffe8d4551e55a5c67a9e28b629758b32b98",
        "fc6e1046ce13b0f63569bb386814d988299e7900729bd572b721e25c64223ca2",
        "653193be712d83e9a6257d7e1fd737b96180d7b4de366dcf1b159fd65d38d14c",
    ),
    "border": (
        "116dc490bc9e22640842aceb6c67499131a684b691bb8f6daef717e35a321b84",
        "8425694d30683aa5b4f777fe20ad9f3f15f7f92b20e5b1047c5e8391ffbd08ad",
        "7da611420a0ee7a27df1351945cf0b72deeab9d008521a2e10a87ea08852b36a",
    ),
}

GOLDEN_PAIRS = {
    "rotated": "ed2e1754788a0096eea95e2923f98bec2ace48f3dd4a89988e501f8afb22180f",
    "shifted": "45dd6da26c092ceeb2b52a43c3202553f6efc00bc53c0b86841de582d123e122",
    "unrelated": "b41684bbe85f54aa31a241354c07850d84bdabff47a34586fea40e88882e0aee",
    "noise": "eaf31a42aee84145177574d9e36548a2fa09b96bf115307a32ff930e0a1f5ce1",
}

# (survivors, inliers, near_duplicate) of each pair: the funnel the digests lock.
GOLDEN_FUNNELS = {
    "rotated": (672, 642, True),
    "shifted": (1761, 1752, True),
    "unrelated": (158, 7, False),
    "noise": (0, 0, False),
}


GOLDEN_KEYPOINTS = {
    "texture": "b6da586e63d91330e1ec1bc3d79b0017a3c6fed674e3a9a4c7b6ab6e4fafb1b6",
    "rotated": "eeda2e1ceec1b7421be06f949b3e1012d68773227ec6f79d4e77f6e1b726fa93",
    "shifted": "797adf1b8d5e242f3ed21ef196fabb0984122683c55b1ae0c118b9e47a62bf4f",
    "unrelated": "a6d35f42c5b35b82fdd344184ed9e878526229f98ab4a4d5955d94c3925a4d80",
    "noise": "b051d3acad82f0a0b81eedf2cb6a3078bc15f9b429728c3d17e198e2dea52e36",
}


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_outputs_unchanged(name):
    assert frame_digests(name) == GOLDEN_FRAMES[name]


_BUILTIN_SUM = sum


def _compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 and later compute it over floats: Neumaier's compensated loop."""
    items = list(iterable)
    if not all(type(x) is float for x in items):
        return _BUILTIN_SUM(items, start)
    total, comp = start, 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_outputs_hold_under_compensated_sum(name, monkeypatch):
    # Python 3.12 made the builtin sum of floats compensated; no output may depend on the version.
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert frame_digests(name) == GOLDEN_FRAMES[name]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_match_result_unchanged(name):
    assert pair_digest(name) == GOLDEN_PAIRS[name]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_match_funnel_unchanged(name):
    assert pair_funnel(name) == GOLDEN_FUNNELS[name]


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            return {flag for line in f if line.startswith("flags") for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


_PRINT_PAIRS = "import test_golden as g\nfor n in sorted(g.PAIRS): print(g.pair_json(n))"


@pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
                    reason="the kernels forced here are scipy-openblas's")
def test_match_results_identical_across_cpu_kernels():
    # OpenBLAS picks its kernel from the CPU (this build is DYNAMIC_ARCH), and
    # numpy its SIMD loops; neither may change a byte of a match result.
    kernels = {
        "default": {},
        "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "numpy X86_V2 baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    }
    if {"avx2", "fma"} <= _cpu_flags():  # the Haswell kernel needs both
        kernels["OpenBLAS Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env |= {"PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]), "OPENBLAS_NUM_THREADS": "1"}
    runs = {name: subprocess.Popen([sys.executable, "-c", _PRINT_PAIRS], env=env | extra, text=True,
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for name, extra in kernels.items()}
    outputs = {}
    for name, run in runs.items():
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, f"{name}: {err}"
        outputs[name] = out
    assert len(outputs["default"].splitlines()) == len(PAIRS)
    assert [name for name, out in outputs.items() if out != outputs["default"]] == []


@pytest.mark.parametrize("name", sorted(DETECT_IMAGES))
def test_keypoints_unchanged(name):
    assert keypoint_digest(name) == GOLDEN_KEYPOINTS[name]


@pytest.mark.parametrize("name", sorted(DETECT_IMAGES))
def test_describe_keeps_every_detected_keypoint(name):
    # detect's border margin covers describe's patch radius, so match_images
    # never sees an empty descriptor set after a non-empty keypoint list.
    image = DETECT_IMAGES[name]()
    kps = detect(image)
    desc, kept = describe(image, kps)
    assert len(kps) and list(kept) == list(kps) and len(desc) == len(kps)


@pytest.mark.parametrize("name", sorted(GOLDEN_PAIRS))
def test_public_calls_reproduce_match_images(name):
    # The benchmark's traced run times match_images as this sequence of public
    # calls, reading each kept keypoint as a row; it must give the same result.
    a, b = PAIRS[name]()
    config = MatchConfig()
    kps_a = detect(a, config.max_features, config.fast_threshold)
    kps_b = detect(b, config.max_features, config.fast_threshold)
    desc_a, kept_a = describe(a, kps_a)
    desc_b, kept_b = describe(b, kps_b)
    pairs, _ = match(desc_a, desc_b, config.ratio)
    putative, survivors = len(desc_a), len(pairs)
    result = MatchResult(putative=putative, survivors=survivors, inliers=0, homography=None, near_duplicate=False)
    if survivors >= 4:
        src = np.array([(kept_a[i].x, kept_a[i].y) for i in pairs[:, 0]])
        dst = np.array([(kept_b[j].x, kept_b[j].y) for j in pairs[:, 1]])
        try:
            ransac = ransac_homography(src, dst, reproj_threshold=config.reproj_threshold_px,
                                       iterations=config.ransac_iterations, seed=config.seed)
        except RansacError:
            pass
        else:
            hom = None
            if ransac.homography is not None and ransac.inlier_count >= 4:
                hom = tuple(float(v) for v in ransac.homography.reshape(-1))
            result = MatchResult(putative=putative, survivors=survivors, inliers=ransac.inlier_count,
                                 homography=hom, near_duplicate=ransac.inlier_count >= config.min_inliers)
    assert result == match_images(a, b)
    assert _sha(json.dumps(result.as_dict(), sort_keys=True)) == GOLDEN_PAIRS[name]


if __name__ == "__main__":
    print("GOLDEN_FRAMES = {")
    for n in FRAMES:
        print(f'    "{n}": (')
        for d in frame_digests(n):
            print(f'        "{d}",')
        print("    ),")
    print("}\n\nGOLDEN_PAIRS = {")
    for n in PAIRS:
        print(f'    "{n}": "{pair_digest(n)}",')
    print("}\n\nGOLDEN_FUNNELS = {")
    for n in PAIRS:
        print(f'    "{n}": {pair_funnel(n)},')
    print("}\n\nGOLDEN_KEYPOINTS = {")
    for n in DETECT_IMAGES:
        print(f'    "{n}": "{keypoint_digest(n)}",')
    print("}")
