"""RANSAC homography estimation over point correspondences.

Minimal 4-point DLT fits (with Hartley coordinate normalization) are scored
by inlier count under a forward reprojection threshold; the best model is
refit on its full inlier set. Sampling uses an explicitly seeded generator,
so results are bit-reproducible run to run.

The iterations run as whole-array passes. Every minimal sample is drawn up
front, one ``rng.choice(n, 4, replace=False)`` per iteration, so the sample
sequence does not depend on what the fits find. Samples with three collinear
points in either image are dropped in one vectorized test, and the rest are
solved as one stack of 9x9 systems by ``_dlt``, the same code that refits the
winner as a stack of one. The models are scored in chunks sized by models x
correspondences, which bounds the scratch memory at any correspondence count.
The best model is the first one, in iteration order, with the highest inlier
count: ``argmax`` takes the first maximum within a chunk, and a later chunk
replaces the best only with a strictly higher count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Models x correspondences scored at once; about 40 bytes of scratch each.
_CHUNK_MODEL_POINTS = 1 << 16

# The four point triples of a minimal sample, as (first, second, third) columns.
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


class RansacError(Exception):
    pass


class DegenerateSamplesError(RansacError):
    """Every sampled minimal set was collinear."""


@dataclass(frozen=True)
class RansacResult:
    homography: np.ndarray | None  # (3, 3), bottom-right normalized to 1
    inlier_mask: np.ndarray        # bool, aligned with the input pairs
    inlier_count: int


def _normalization(pts: np.ndarray) -> np.ndarray:
    """(k, 3, 3) similarities sending each (k, m, 2) point set's centroid to 0 and mean norm to sqrt(2)."""
    centroid = pts.mean(axis=1)
    dist = np.sqrt(((pts - centroid[:, None, :]) ** 2).sum(axis=2)).mean(axis=1)
    with np.errstate(divide="ignore"):
        scale = np.where(dist > 0, np.sqrt(2.0) / dist, 1.0)
    t = np.zeros((len(pts), 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, 0, 2] = -scale * centroid[:, 0]
    t[:, 1, 2] = -scale * centroid[:, 1]
    t[:, 2, 2] = 1.0
    return t


def _dlt(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Normalized direct linear transforms of k stacked systems of m >= 4 points.

    ``src`` and ``dst`` are (k, m, 2). Returns the homographies, scaled to
    h[2, 2] = 1, of the systems that give one, in stack order: (<= k, 3, 3).
    A system gives none when it has a non-finite entry (LAPACK raises on NaN,
    and on infinities may return NaN or hang), when its null space has
    dimension above 1, or when h[2, 2] vanishes.
    """
    k, m = src.shape[:2]
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    ones = np.ones((k, m, 1))
    s = (np.concatenate([src, ones], axis=2) @ t_src.transpose(0, 2, 1))[..., :2]
    d = (np.concatenate([dst, ones], axis=2) @ t_dst.transpose(0, 2, 1))[..., :2]

    # A minimal sample gives an 8x9 system, whose null vector is the 9th right
    # singular vector, absent from the reduced factorization; a zero row adds it
    # (and its zero singular value) while keeping the SVD O(N) for large refits.
    a = np.zeros((k, max(2 * m, 9), 9))
    a[:, 0 : 2 * m : 2, 0:2] = s
    a[:, 0 : 2 * m : 2, 2] = 1.0
    a[:, 0 : 2 * m : 2, 6:8] = -s * d[..., 0:1]
    a[:, 0 : 2 * m : 2, 8] = -d[..., 0]
    a[:, 1 : 2 * m : 2, 3:5] = s
    a[:, 1 : 2 * m : 2, 5] = 1.0
    a[:, 1 : 2 * m : 2, 6:8] = -s * d[..., 1:2]
    a[:, 1 : 2 * m : 2, 8] = -d[..., 1]

    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.any():
        return np.empty((0, 3, 3))
    _, sv, vt = np.linalg.svd(a[finite], full_matrices=False)
    full_rank = sv[:, -2] > 1e-12 * sv[:, 0]
    h_norm = vt[full_rank, -1].reshape(-1, 3, 3)
    h = np.linalg.inv(t_dst[finite][full_rank]) @ h_norm @ t_src[finite][full_rank]
    h = h[np.abs(h[:, 2, 2]) >= 1e-12]
    return h / h[:, 2:3, 2:3]


def _collinear(pts: np.ndarray) -> np.ndarray:
    """(k,) bool: whether any three of each (k, 4, 2) sample's points are collinear."""
    span = np.abs(pts).max(axis=(1, 2)) + 1.0
    tol = 1e-9 * span * span
    first, second, third = _TRIPLES
    v1 = pts[:, second] - pts[:, first]
    v2 = pts[:, third] - pts[:, first]
    cross = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return (np.abs(cross) <= tol[:, None]).any(axis=1)


def _inliers(h: np.ndarray, src_h: np.ndarray, dst: np.ndarray, threshold: float) -> np.ndarray:
    """(k, n) bool: forward reprojection error of each of k models strictly below the threshold.

    ``src_h`` holds the source points in homogeneous coordinates, (n, 3). A
    point that a model sends to infinity (|w| <= 1e-12) is an outlier.
    """
    proj = np.matmul(src_h, h.transpose(0, 2, 1))
    w = proj[..., 2]
    # sqrt(ex**2 + ey**2) in place, operation for operation (np.hypot rounds differently).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ex = proj[..., 0] / w
        ex -= dst[:, 0]
        ex *= ex
        ey = proj[..., 1] / w
        ey -= dst[:, 1]
        ey *= ey
        ex += ey
        np.sqrt(ex, out=ex)
    return (np.abs(w) > 1e-12) & (ex < threshold)


def ransac_homography(
    src_pts: np.ndarray,
    dst_pts: np.ndarray,
    *,
    reproj_threshold: float = 20.0,
    iterations: int = 2000,
    seed: int = 0,
) -> RansacResult:
    """Estimate a homography mapping src points onto dst points.

    An inlier has forward reprojection error strictly below the threshold.
    The best minimal model by inlier count (first found wins ties) is refit
    on all of its inliers; if the refit holds at least 4 inliers it becomes
    the final model, otherwise the minimal fit stands. It raises
    ``RansacError`` when no sampled model holds an inlier.
    """
    src = np.asarray(src_pts, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_pts, dtype=np.float64).reshape(-1, 2)
    if len(src) != len(dst):
        raise ValueError("correspondence lists differ in length")
    n = len(src)
    if n < 4:
        raise RansacError(f"insufficient correspondences: {n} < 4")

    rng = np.random.Generator(np.random.PCG64(seed))
    samples = np.array([rng.choice(n, size=4, replace=False) for _ in range(iterations)], dtype=np.intp)
    samples = samples.reshape(-1, 4)
    samples = samples[~(_collinear(src[samples]) | _collinear(dst[samples]))]
    models = _dlt(src[samples], dst[samples])
    if len(models) == 0:
        raise DegenerateSamplesError("all sampled minimal sets were degenerate")

    src_h = np.hstack([src, np.ones((n, 1))])
    chunk = max(1, _CHUNK_MODEL_POINTS // n)
    best_mask: np.ndarray | None = None
    best_count = 0
    best_h: np.ndarray | None = None
    for start in range(0, len(models), chunk):
        masks = _inliers(models[start : start + chunk], src_h, dst, reproj_threshold)
        counts = masks.sum(axis=1)
        j = int(counts.argmax())
        if counts[j] > best_count:
            best_count, best_mask, best_h = int(counts[j]), masks[j].copy(), models[start + j]
    if best_h is None:
        raise RansacError("no sampled model holds an inlier")

    if best_count >= 4:
        refit = _dlt(src[best_mask][None], dst[best_mask][None])
        if len(refit):
            mask = _inliers(refit, src_h, dst, reproj_threshold)[0]
            count = int(mask.sum())
            if count >= 4:
                return RansacResult(homography=refit[0], inlier_mask=mask, inlier_count=count)
    return RansacResult(homography=best_h, inlier_mask=best_mask, inlier_count=best_count)
