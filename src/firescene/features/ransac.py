"""RANSAC homography estimation over point correspondences.

Minimal 4-point fits are scored by inlier count under a forward reprojection
threshold; the best model is refit on its full inlier set. Sampling uses an
explicitly seeded generator, so results are bit-reproducible run to run.

The minimal samples are drawn, fitted and scored one chunk at a time, the chunk
sized by models x correspondences to bound the scratch memory. The draws continue
one generator stream, so the samples depend neither on what the fits find nor on
the chunk size: row i holds integers below n, n - 1, n - 2 and n - 3, and each
picks among the indices the earlier ones left (the sequential skip rule).
A minimal fit is the closed form Q_dst adj(Q_src), Q_p the map of the unit
square onto the points p (Heckbert 1989, section 2.2.3); samples with three
collinear points in either image, and non-finite models, are dropped. The
refit is the least-squares fit with h[2, 2] = 1 in Hartley-normalized
coordinates (Hartley & Zisserman 2004, sections 4.1 and 4.4). Every float is
computed by elementwise ufuncs and np.add.reduce, never by BLAS or LAPACK,
whose rounding depends on the CPU's kernel, so the bytes are the same on
every CPU.

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

from .image import integer_at_least

# Probability that some drawn sample is all inliers when the early exit fires.
CONFIDENCE = 0.99

# Models x correspondences fitted and scored per chunk, between early-exit tests.
_CHUNK_MODEL_POINTS = 1 << 16

# Models x correspondences whose reprojection errors are computed at once, about
# 40 bytes of scratch each: small enough to stay in a core's L2 cache.
_BLOCK_MODEL_POINTS = 1 << 14

# The four point triples of a minimal sample, as (first, second, third) columns.
_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


class RansacError(Exception):
    pass


class DegenerateSamplesError(RansacError):
    """No sampled minimal set gave a model: each had three collinear points in an image or a non-finite fit."""


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z components of the cross products of (..., 2) vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a b of (..., 3, 3) stacks, each entry summed as (a0 * b0 + a1 * b1) + a2 * b2."""
    return a[..., :, 0:1] * b[..., 0:1, :] + a[..., :, 1:2] * b[..., 1:2, :] + a[..., :, 2:3] * b[..., 2:3, :]


def _unit_h22(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., 3, 3) homographies scaled to h[2, 2] = 1, and the bool of those left finite (not so if h[2, 2] = 0)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = h / h[..., 2:3, 2:3]
    return h, np.isfinite(h).all(axis=(-2, -1))


def _square_to(p: np.ndarray) -> np.ndarray:
    """(k, 3, 3) maps, up to scale, of the unit square's corners (0, 0), (1, 0), (1, 1), (0, 1) onto the
    (k, 4, 2) samples' points: Heckbert's closed form times its denominator, so that it divides nowhere.
    """
    p0, p1, p2, p3 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    d1, d2, s = p1 - p2, p3 - p2, p0 - p1 + p2 - p3
    den, g, h = _cross(d1, d2), _cross(s, d2), _cross(d1, s)
    q = np.empty((len(p), 3, 3))
    q[:, 0:2, 0] = (p1 - p0) * den[:, None] + g[:, None] * p1
    q[:, 0:2, 1] = (p3 - p0) * den[:, None] + h[:, None] * p3
    q[:, 0:2, 2] = p0 * den[:, None]
    q[:, 2, 0], q[:, 2, 1], q[:, 2, 2] = g, h, den
    return q


def _adjugate(m: np.ndarray) -> np.ndarray:
    """adj(m) of (k, 3, 3) stacks: column i is the cross product of rows i + 1 and i + 2 (mod 3)."""
    r0, r1, r2 = m[:, 0], m[:, 1], m[:, 2]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=2)


def _collinear(pts: np.ndarray) -> np.ndarray:
    """(k,) bool: whether any three of each (k, 4, 2) sample's points are collinear."""
    span = np.abs(pts).max(axis=(1, 2)) + 1.0
    tol = 1e-9 * span * span
    first, second, third = _TRIPLES
    cross = _cross(pts[:, second] - pts[:, first], pts[:, third] - pts[:, first])
    return (np.abs(cross) <= tol[:, None]).any(axis=1)


def _fit(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal fits of (k, 4, 2) samples: Q_dst adj(Q_src), Q_p the ``_square_to`` map of the points p.

    Returns (k, 3, 3) homographies scaled to h[2, 2] = 1 and the (k,) bool of
    the fits that hold. A fit does not hold when three of its points in
    either image are collinear, or when an entry is not finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        h, finite = _unit_h22(_matmul(_square_to(dst), _adjugate(_square_to(src))))
        return h, finite & ~(_collinear(src) | _collinear(dst))


def _normalize(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The similarity sending the points' centroid to 0 and mean norm to sqrt(2), its inverse, and the moved (x, y)."""
    cx, cy = x.mean(), y.mean()
    x, y = x - cx, y - cy
    dist = np.sqrt(x * x + y * y).mean()
    scale = math.sqrt(2.0) / dist if dist > 0 else 1.0
    t = np.array([[scale, 0.0, -scale * cx], [0.0, scale, -scale * cy], [0.0, 0.0, 1.0]])
    inv = np.array([[1.0 / scale, 0.0, cx], [0.0, 1.0 / scale, cy], [0.0, 0.0, 1.0]])
    return t, inv, np.stack([x * scale, y * scale])


def _sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(i, j) sums over the points of a[i] * b[j], for (i, m) and (j, m) rows; one pairwise np.add.reduce each."""
    return np.add.reduce(a[:, None, :] * b[None, :, :], axis=2)


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x with a x = b, by Gaussian elimination with partial pivoting (first largest pivot).

    None when a pivot is not above 1e-12 times the largest |entry| of a,
    which includes a non-finite a.
    """
    n = len(b)
    m = np.column_stack([a, b])
    tol = 1e-12 * np.abs(a).max()
    for k in range(n):
        p = k + int(np.abs(m[k:, k]).argmax())
        if not abs(m[p, k]) > tol:
            return None
        m[[k, p]] = m[[p, k]]
        m[k + 1 :, k:] -= m[k + 1 :, k : k + 1] / m[k, k] * m[k, k:]
    x = m[:, n].copy()
    for k in reversed(range(n)):
        x[k] /= m[k, k]
        x[:k] -= m[:k, k] * x[k]
    return x


def _refit(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Least-squares homography with h[2, 2] = 1 of (m, 2) correspondences, m >= 4, or None.

    The fit is taken in Hartley-normalized coordinates (Hartley & Zisserman
    2004, sections 4.1 and 4.4): each correspondence (x, y) -> (u, v) gives
    the rows (x, y, 1, 0, 0, 0, -x*u, -y*u | u) and (0, 0, 0, x, y, 1, -x*v,
    -y*v | v), whose 8x8 normal equations ``_eliminate`` solves. The result
    is in pixel space, scaled to h[2, 2] = 1. None when the normal equations
    are singular or the pixel-space model is not finite.
    """
    t_src, _, (x, y) = _normalize(*src.T)
    _, inv_dst, uv = _normalize(*dst.T)
    p = np.stack([x, y, np.ones_like(x)])  # (x, y, 1) of each point
    c = p[:2]
    r = uv[0] * uv[0] + uv[1] * uv[1]
    a = np.zeros((8, 8))
    a[0:3, 0:3] = a[3:6, 3:6] = _sums(p, p)
    a[0:3, 6:8] = -_sums(p, c * uv[0])
    a[3:6, 6:8] = -_sums(p, c * uv[1])
    a[6:8, 0:6] = a[0:6, 6:8].T
    a[6:8, 6:8] = _sums(c, c * r)
    b = np.concatenate([_sums(p, uv).T.reshape(6), -_sums(c, r[None])[:, 0]])
    h8 = _eliminate(a, b)
    if h8 is None:
        return None
    h, finite = _unit_h22(_matmul(_matmul(inv_dst, np.append(h8, 1.0).reshape(3, 3)), t_src))
    return h if finite else None


def _inliers(h: np.ndarray, src: np.ndarray, dst: np.ndarray, threshold: float) -> np.ndarray:
    """(k, n) bool: forward reprojection error of each of k models strictly below the threshold.

    A model h sends (x, y) to (px, py, w), each a sum (h0 * x + h1 * y) + h2
    of a row of h. The error against (u, v) is sqrt(ex**2 + ey**2) with
    ex = px / w - u and ey = py / w - v. A point that a model sends to
    infinity (|w| <= 1e-12) is an outlier.
    """
    x, y = np.ascontiguousarray(src.T)
    u, v = np.ascontiguousarray(dst.T)
    out = np.empty((len(h), len(x)), dtype=bool)
    step = max(1, _BLOCK_MODEL_POINTS // len(x))

    def project(block: np.ndarray, row: int) -> np.ndarray:
        p = block[:, row, 0:1] * x
        p += block[:, row, 1:2] * y
        p += block[:, row, 2:3]
        return p

    for start in range(0, len(h), step):
        block = h[start : start + step]
        w, ex, ey = project(block, 2), project(block, 0), project(block, 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for e, target in ((ex, u), (ey, v)):
                e /= w
                e -= target
                e *= e
            ex += ey
            np.sqrt(ex, out=ex)
        np.abs(w, out=w)
        np.logical_and(w > 1e-12, ex < threshold, out=out[start : start + step])
    return out


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
    which must be positive; ``seed`` must be a non-negative integer. At most
    ``iterations`` (an integer >= 1) minimal samples are drawn; the loop
    stops earlier, after a whole chunk, once the best inlier ratio says
    enough were drawn. The best minimal model by inlier count (first found
    wins ties) is refit on all of its inliers; if the refit holds at least 4
    inliers it becomes the final model, otherwise the minimal fit stands.
    It raises ``ValueError`` on bad arguments, and ``RansacError`` when no
    sampled model holds an inlier.
    """
    src = np.asarray(src_pts, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst_pts, dtype=np.float64).reshape(-1, 2)
    if len(src) != len(dst):
        raise ValueError("correspondence lists differ in length")
    iterations = integer_at_least("iterations", iterations, 1)
    seed = integer_at_least("seed", seed, 0)
    if not reproj_threshold > 0:
        raise ValueError(f"reproj_threshold must be positive, got {reproj_threshold}")
    n = len(src)
    if n < 4:
        raise RansacError(f"insufficient correspondences: {n} < 4")

    rng = np.random.Generator(np.random.PCG64(seed))
    chunk = max(1, _CHUNK_MODEL_POINTS // n)
    fitted_any = False
    best_mask: np.ndarray | None = None
    best_count = 0
    best_h: np.ndarray | None = None
    for start in range(0, iterations, chunk):
        drawn = min(start + chunk, iterations)
        samples = _draw(rng, n, drawn - start)
        models, fitted = _fit(src[samples], dst[samples])
        models = models[fitted]
        if len(models):
            fitted_any = True
            masks = _inliers(models, src, dst, reproj_threshold)
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
        refit = _refit(src[best_mask], dst[best_mask])
        if refit is not None:
            mask = _inliers(refit[None], src, dst, reproj_threshold)[0]
            count = int(mask.sum())
            if count >= 4:
                return RansacResult(refit, mask, count, drawn)
    return RansacResult(best_h, best_mask, best_count, drawn)
