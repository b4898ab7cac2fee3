"""RANSAC homography estimation over point correspondences.

Minimal 4-point fits are scored by inlier count under a forward reprojection
threshold; the best model is refit on its full inlier set. Sampling uses an
explicitly seeded generator, so results are bit-reproducible run to run.

Every minimal sample is drawn up front in one call, so the sample sequence does
not depend on what the fits find: row i holds integers below n, n - 1, n - 2
and n - 3, and each picks among the indices the earlier ones left (the
sequential skip rule). The samples are fitted and scored one chunk at a time,
the chunk sized by models x correspondences to bound the scratch memory.
Within a chunk, samples with three collinear points in either image are
dropped, and the rest are solved as one stack of 8x8 systems in
Hartley-normalized coordinates with h[2, 2] = 1; a fit the solve does not give
goes to ``_dlt``, the stacked 9x9 SVD that also refits the winner.

After each chunk the loop stops once the samples drawn reach
N = log(1 - CONFIDENCE) / log(1 - w^4), w the best inlier ratio so far
(Fischler & Bolles 1981; Hartley & Zisserman 2004, section 4.7), so
``iterations`` is a cap. The best model is the first one, in iteration order,
with the highest inlier count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Probability that some drawn sample is all inliers when the early exit fires.
CONFIDENCE = 0.99

# Models x correspondences scored at once; about 40 bytes of scratch each.
_CHUNK_MODEL_POINTS = 1 << 16

# The four point triples of a minimal sample, as (first, second, third) columns.
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


class RansacError(Exception):
    pass


class DegenerateSamplesError(RansacError):
    """No sampled minimal set gave a model: each was collinear, non-finite or rank deficient."""


@dataclass(frozen=True)
class RansacResult:
    homography: np.ndarray | None  # (3, 3), bottom-right normalized to 1
    inlier_mask: np.ndarray        # bool, aligned with the input pairs
    inlier_count: int
    iterations: int                # minimal samples drawn before the loop stopped


def _draw(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 4) minimal samples, each of 4 distinct indices below n >= 4, from one generator call."""
    idx = rng.integers(0, [n, n - 1, n - 2, n - 3], size=(count, 4))
    for k in range(1, 4):
        taken = np.sort(idx[:, :k], axis=1)
        for j in range(k):
            idx[:, k] += idx[:, k] >= taken[:, j]
    return idx


def _normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hartley normalization of (k, m, 2) point sets.

    Returns the (k, 3, 3) similarities sending each set's centroid to 0 and
    mean norm to sqrt(2), their inverses (built directly, never by LAPACK),
    and the (k, m, 2) points they move.
    """
    k = len(pts)
    centroid = pts.mean(axis=1)
    moved = pts - centroid[:, None, :]
    dist = np.sqrt((moved * moved).sum(axis=2)).mean(axis=1)
    with np.errstate(divide="ignore"):
        scale = np.where(dist > 0, np.sqrt(2.0) / dist, 1.0)
    moved *= scale[:, None, None]
    t = np.zeros((k, 3, 3))
    t[:, 0, 0] = t[:, 1, 1] = scale
    t[:, 0:2, 2] = -scale[:, None] * centroid
    t[:, 2, 2] = 1.0
    inv = np.zeros((k, 3, 3))
    inv[:, 0, 0] = inv[:, 1, 1] = 1.0 / scale
    inv[:, 0:2, 2] = centroid
    inv[:, 2, 2] = 1.0
    return t, inv, moved


def _denormalize(h_norm: np.ndarray, t_src: np.ndarray, inv_dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-space homographies scaled to h[2, 2] = 1, and the (k,) bool of those whose h[2, 2] does not vanish."""
    h = inv_dst @ h_norm @ t_src
    with np.errstate(divide="ignore", invalid="ignore"):
        return h / h[:, 2:3, 2:3], np.abs(h[:, 2, 2]) >= 1e-12


def _dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized direct linear transforms of k stacked systems of m >= 4 points.

    ``src`` and ``dst`` are (k, m, 2). Returns (k, 3, 3) homographies scaled
    to h[2, 2] = 1 and the (k,) bool of the systems that give one; the other
    rows are NaN. A system gives none when it has a non-finite entry (LAPACK
    raises on NaN, and on infinities may return NaN or hang, so such systems
    never reach it), when its null space has dimension above 1, or when
    h[2, 2] vanishes.
    """
    k, m = src.shape[:2]
    t_src, _, s = _normalize(src)
    _, inv_dst, d = _normalize(dst)

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

    h = np.full((k, 3, 3), np.nan)
    fitted = np.isfinite(a).all(axis=(1, 2))
    if fitted.any():
        _, sv, vt = np.linalg.svd(a[fitted], full_matrices=False)
        h_fit, ok = _denormalize(vt[:, -1].reshape(-1, 3, 3), t_src[fitted], inv_dst[fitted])
        ok &= sv[:, -2] > 1e-12 * sv[:, 0]
        h[fitted] = h_fit
        fitted[fitted] = ok
    h[~fitted] = np.nan
    return h, fitted


def _solve(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal fits of (k, 4, 2) samples as 8x8 systems in normalized coordinates, h[2, 2] = 1.

    Returns (k, 3, 3) homographies scaled to h[2, 2] = 1 and the (k,) bool of
    the fits that hold. A fit does not hold when its system is non-finite
    (screened out before LAPACK) or singular, when it misses one of its own
    normalized points by more than 1e-9 in a coordinate, or when h[2, 2]
    vanishes in pixel space.
    """
    k = len(src)
    t_src, _, s = _normalize(src)
    _, inv_dst, d = _normalize(dst)
    x, y, u, v = s[..., 0], s[..., 1], d[..., 0], d[..., 1]
    a = np.zeros((k, 4, 2, 8))
    a[:, :, 0, 0], a[:, :, 0, 1], a[:, :, 0, 2] = x, y, 1.0
    a[:, :, 1, 3], a[:, :, 1, 4], a[:, :, 1, 5] = x, y, 1.0
    a[:, :, 0, 6], a[:, :, 0, 7] = -x * u, -y * u
    a[:, :, 1, 6], a[:, :, 1, 7] = -x * v, -y * v
    a = a.reshape(k, 8, 8)
    b = d.reshape(k, 8, 1)

    solved = np.isfinite(a).all(axis=(1, 2))  # u and v enter a too
    h8 = np.full((k, 8), np.nan)
    try:
        h8[solved] = np.linalg.solve(a[solved], b[solved])[..., 0]
    except np.linalg.LinAlgError:  # a singular system fails the whole stack
        for i in np.flatnonzero(solved):
            try:
                h8[i] = np.linalg.solve(a[i : i + 1], b[i : i + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[i] = False
    h_norm = np.concatenate([h8, np.ones((k, 1))], axis=1).reshape(k, 3, 3)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = h_norm[:, 2:3, 0] * x + h_norm[:, 2:3, 1] * y + 1.0
        miss_u = np.abs((h_norm[:, 0:1, 0] * x + h_norm[:, 0:1, 1] * y + h_norm[:, 0:1, 2]) / w - u)
        miss_v = np.abs((h_norm[:, 1:2, 0] * x + h_norm[:, 1:2, 1] * y + h_norm[:, 1:2, 2]) / w - v)
        solved &= ((miss_u <= 1e-9) & (miss_v <= 1e-9)).all(axis=1)
        h, ok = _denormalize(h_norm, t_src, inv_dst)
    return h, solved & ok


def _fit(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal fits of (k, 4, 2) samples: the 8x8 solve, and the SVD for the fits it does not hold."""
    h, fitted = _solve(src, dst)
    redo = np.flatnonzero(~fitted)
    if len(redo):
        h[redo], fitted[redo] = _dlt(src[redo], dst[redo])
    return h, fitted


def _collinear(pts: np.ndarray) -> np.ndarray:
    """(k,) bool: whether any three of each (k, 4, 2) sample's points are collinear."""
    span = np.abs(pts).max(axis=(1, 2)) + 1.0
    tol = 1e-9 * span * span
    first, second, third = _TRIPLES
    v1 = pts[:, second] - pts[:, first]
    v2 = pts[:, third] - pts[:, first]
    cross = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return (np.abs(cross) <= tol[:, None]).any(axis=1)


def _scoring_rows(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(9, n) rows x, y, 1, -u*x, -u*y, -u, -v*x, -v*y, -v of points (x, y) -> (u, v).

    With them one matrix product gives, for every model and point, w and the
    reprojection residuals' numerators px - u*w and py - v*w (``_inliers``).
    """
    x, y = src.T
    u, v = dst.T
    ones = np.ones(len(src))
    return np.stack([x, y, ones, -u * x, -u * y, -u, -v * x, -v * y, -v])


def _inliers(h: np.ndarray, rows: np.ndarray, threshold: float) -> np.ndarray:
    """(k, n) bool: forward reprojection error of each of k models strictly below the threshold.

    ``rows`` are the ``_scoring_rows`` of the n correspondences. The error is
    sqrt(ex**2 + ey**2) with ex = (px - u*w) / w and ey = (py - v*w) / w. A
    point that a model sends to infinity (|w| <= 1e-12) is an outlier.
    """
    k = len(h)
    coef = np.zeros((3, k, 9))
    coef[0, :, 0:3] = h[:, 0]
    coef[0, :, 3:6] = h[:, 2]
    coef[1, :, 0:3] = h[:, 1]
    coef[1, :, 6:9] = h[:, 2]
    coef[2, :, 0:3] = h[:, 2]
    ex, ey, w = (coef.reshape(3 * k, 9) @ rows).reshape(3, k, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ex /= w
        ex *= ex
        ey /= w
        ey *= ey
        ex += ey
        np.sqrt(ex, out=ex)
    np.abs(w, out=w)
    return (w > 1e-12) & (ex < threshold)


def _samples_needed(inliers: int, n: int) -> float:
    """Samples after which some all-inlier sample was drawn with probability CONFIDENCE, at inlier ratio inliers / n."""
    w4 = (inliers / n) ** 4
    if w4 >= 1.0:
        return 0.0
    if w4 == 0.0:
        return math.inf
    return math.log(1.0 - CONFIDENCE) / math.log1p(-w4)


def ransac_homography(
    src_pts: np.ndarray,
    dst_pts: np.ndarray,
    *,
    reproj_threshold: float = 20.0,
    iterations: int = 2000,
    seed: int = 0,
) -> RansacResult:
    """Estimate a homography mapping src points onto dst points.

    An inlier has forward reprojection error strictly below the threshold,
    which must be positive. At most ``iterations`` (>= 1) minimal samples are
    drawn; the loop stops earlier, after a whole chunk, once the best inlier
    ratio says enough were drawn. The best minimal model by inlier count
    (first found wins ties) is refit on all of its inliers; if the refit holds
    at least 4 inliers it becomes the final model, otherwise the minimal fit
    stands. It raises ``ValueError`` on bad arguments, and ``RansacError``
    when no sampled model holds an inlier.
    """
    src = np.asarray(src_pts, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_pts, dtype=np.float64).reshape(-1, 2)
    if len(src) != len(dst):
        raise ValueError("correspondence lists differ in length")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not reproj_threshold > 0:
        raise ValueError(f"reproj_threshold must be positive, got {reproj_threshold}")
    n = len(src)
    if n < 4:
        raise RansacError(f"insufficient correspondences: {n} < 4")

    samples = _draw(np.random.Generator(np.random.PCG64(seed)), n, iterations)
    rows = _scoring_rows(src, dst)
    chunk = max(1, _CHUNK_MODEL_POINTS // n)
    fitted_any = False
    best_mask: np.ndarray | None = None
    best_count = 0
    best_h: np.ndarray | None = None
    for start in range(0, iterations, chunk):
        drawn = min(start + chunk, iterations)
        s, d = src[samples[start:drawn]], dst[samples[start:drawn]]
        keep = ~(_collinear(s) | _collinear(d))
        models, fitted = _fit(s[keep], d[keep])
        models = models[fitted]
        if len(models):
            fitted_any = True
            masks = _inliers(models, rows, reproj_threshold)
            counts = masks.sum(axis=1)
            j = int(counts.argmax())
            if counts[j] > best_count:
                best_count, best_mask, best_h = int(counts[j]), masks[j].copy(), models[j]
        if drawn >= _samples_needed(best_count, n):
            break
    if not fitted_any:
        raise DegenerateSamplesError("all sampled minimal sets were degenerate")
    if best_h is None:
        raise RansacError("no sampled model holds an inlier")

    if best_count >= 4:
        refit, fitted = _dlt(src[best_mask][None], dst[best_mask][None])
        if fitted[0]:
            mask = _inliers(refit, rows, reproj_threshold)[0]
            count = int(mask.sum())
            if count >= 4:
                return RansacResult(refit[0], mask, count, drawn)
    return RansacResult(best_h, best_mask, best_count, drawn)
