"""End-to-end image matching: detect -> describe -> match -> verify.

A pair of frames counts as near-duplicates when RANSAC confirms at least
``min_inliers`` geometrically consistent matches. Frame a's features are
taken on a helper thread while the caller takes frame b's, and ``match``
scans its two halves of A the same way, so a pair runs on two cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..records import Record
from .brief_pattern import PATCH_RADIUS
from .describe import describe
from .detect import BORDER_MARGIN, KeypointTable, detect
from .image import GrayImage, integer_at_least
from .matching import match
from .ransac import RansacError, ransac_homography
from ..threads import both

import numpy as np

# describe keeps every keypoint detect returns, so a described table is empty only
# when detect found nothing.
assert BORDER_MARGIN >= PATCH_RADIUS


@dataclass(frozen=True)
class MatchConfig:
    max_features: int = 8000
    fast_threshold: int = 20
    ratio: float = 0.8
    reproj_threshold_px: float = 20.0
    ransac_iterations: int = 2000  # a cap: RANSAC stops early once enough samples were drawn
    seed: int = 0
    min_inliers: int = 15

    def __post_init__(self) -> None:
        for name, low in dict(max_features=0, fast_threshold=0, min_inliers=0, ransac_iterations=1, seed=0).items():
            integer_at_least(name, getattr(self, name), low)
        if not self.ratio >= 0:  # NaN fails too
            raise ValueError(f"ratio must be at least 0, got {self.ratio!r}")
        if not self.reproj_threshold_px > 0:
            raise ValueError(f"reproj_threshold_px must be positive, got {self.reproj_threshold_px!r}")


@dataclass(frozen=True)
class MatchResult(Record):
    """Funnel counts for one image pair plus the verified transform.

    ``putative`` counts nearest-neighbor candidates (one per query
    descriptor), ``survivors`` those passing the ratio test, ``inliers`` the
    RANSAC-consistent subset. The homography is present only when RANSAC
    succeeded with at least 4 inliers.
    """

    putative: int
    survivors: int
    inliers: int
    homography: tuple[float, ...] | None
    near_duplicate: bool

    def __post_init__(self) -> None:
        if not (self.inliers <= self.survivors <= self.putative):
            raise ValueError("match funnel must satisfy inliers <= survivors <= putative")


def _unverified(putative: int = 0, survivors: int = 0) -> MatchResult:
    return MatchResult(
        putative=putative, survivors=survivors, inliers=0, homography=None, near_duplicate=False
    )


def match_images(a: GrayImage, b: GrayImage, config: MatchConfig | None = None) -> MatchResult:
    """Run the full matching pipeline between two grayscale images.

    ``detect`` gives each image's keypoints as a ``KeypointTable`` and
    ``describe`` its kept rows; RANSAC's ``src`` and ``dst`` index the kept
    x and y columns by the matched pairs. Frame a's features are taken on a
    helper thread while this one takes frame b's; if both raise, frame a's
    error is raised, as when a is taken first.
    """
    config = config or MatchConfig()

    def features(image: GrayImage) -> tuple[np.ndarray, KeypointTable]:
        return describe(image, detect(image, config.max_features, config.fast_threshold))

    (desc_a, kept_a), (desc_b, kept_b) = both(lambda: features(a), lambda: features(b))
    if not kept_a or not kept_b:
        return _unverified()

    pairs, _ = match(desc_a, desc_b, config.ratio)
    putative = len(desc_a)
    survivors = len(pairs)
    if survivors < 4:
        return _unverified(putative, survivors)

    src = np.stack((kept_a.x[pairs[:, 0]], kept_a.y[pairs[:, 0]]), axis=1)
    dst = np.stack((kept_b.x[pairs[:, 1]], kept_b.y[pairs[:, 1]]), axis=1)
    try:
        result = ransac_homography(
            src,
            dst,
            reproj_threshold=config.reproj_threshold_px,
            iterations=config.ransac_iterations,
            seed=config.seed,
        )
    except RansacError:
        return _unverified(putative, survivors)

    hom = None
    if result.homography is not None and result.inlier_count >= 4:
        hom = tuple(float(v) for v in result.homography.reshape(-1))
    return MatchResult(
        putative=putative,
        survivors=survivors,
        inliers=result.inlier_count,
        homography=hom,
        near_duplicate=result.inlier_count >= config.min_inliers,
    )
