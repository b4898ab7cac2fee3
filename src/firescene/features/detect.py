"""Corner detection: FAST-9 segment test, Harris ranking, patch orientation.

Single scale by design; near-duplicate UAV frames share scale closely.
Candidates need a contiguous arc of 9 circle pixels all brighter (or all
darker) than the center by the intensity threshold, survive a 3x3
non-maximum suppression on the Harris response, and carry the
intensity-centroid orientation of their 31x31 circular patch.

Each step is exact, so it equals bit for bit a float64 evaluation of the
same formulas in any summation order. The segment test packs the 16 circle
comparisons of a pixel into one word per polarity and looks the word up in
a table of arcs. Sobel gradients and Harris window sums are int32 integers
that cannot overflow (``_HARRIS_SUM_BOUND``), and only
``det - k * trace^2`` is taken in float64, from those exact sums. The
centroid moments are integer sums far below 2^53, which a float64 matrix
product computes exactly. Each angle is ``math.atan2`` of the two moments,
one keypoint at a time: ``np.arctan2`` differs from it in the last bit on
some keypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import GrayImage

BORDER_MARGIN = 16  # keeps every descriptor/orientation sample inside the image
FAST_ARC = 9
FAST_THRESHOLD = 20
HARRIS_K = 0.04
HARRIS_WINDOW = 7
ORIENTATION_RADIUS = 15
MIN_IMAGE_SIDE = 32

# Radius-3 Bresenham circle, clockwise from 12 o'clock: (dx, dy) pairs.
CIRCLE = (
    (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)

# A Sobel gradient is at most 4 * 255 in magnitude, so a window sum of its
# squares or products is at most HARRIS_WINDOW^2 * 1020^2.
_HARRIS_SUM_BOUND = HARRIS_WINDOW**2 * (4 * 255) ** 2
assert _HARRIS_SUM_BOUND < 2**31, "Harris window sums must fit in int32"

_ORIENTATION_CHUNK = 512  # keypoints whose patches are gathered at once


class ImageTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    response: float
    angle: float  # radians in (-pi, pi]


def _arc_table() -> np.ndarray:
    """``table[word]``: the 16-bit circle word holds a circular run of FAST_ARC set bits."""
    words = np.arange(1 << 16, dtype=np.uint32)
    doubled = words | (words << 16)  # bit i + 16 repeats bit i, so runs may wrap
    run = doubled
    for k in range(1, FAST_ARC):
        run = run & (doubled >> k)
    return (run & 0xFFFF) != 0


_ARC = _arc_table()


def _shifted_interior(arr: np.ndarray, dx: int, dy: int, margin: int) -> np.ndarray:
    h, w = arr.shape
    return arr[margin + dy : h - margin + dy, margin + dx : w - margin + dx]


def _fast_corner_mask(img: np.ndarray, threshold: int, margin: int) -> np.ndarray:
    """Segment-test mask over the interior region (margin clipped away).

    Bit i of a pixel's bright (dark) word is set when circle pixel i is at
    least ``threshold`` brighter (darker) than the center. Comparisons are
    made in int16, so thresholds near 0 and 255 do not wrap.
    """
    img16 = img.astype(np.int16)
    center = _shifted_interior(img16, 0, 0, margin)
    hi = center + threshold
    lo = center - threshold
    bright = np.zeros(center.shape, dtype=np.uint16)
    dark = np.zeros(center.shape, dtype=np.uint16)
    for i, (dx, dy) in enumerate(CIRCLE):
        ring = _shifted_interior(img16, dx, dy, margin)
        bit = np.uint16(1 << i)
        bright |= (ring >= hi) * bit
        dark |= (ring <= lo) * bit
    return np.take(_ARC, bright) | np.take(_ARC, dark)


def _sobel(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge-padded 3x3 Sobel gradients in int32: a central difference, then [1, 2, 1] smoothing."""
    p = np.pad(img.astype(np.int32), 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    gx = dx[:-2] + 2 * dx[1:-1] + dx[2:]
    sx = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    gy = sx[2:] - sx[:-2]
    return gx, gy


def _box_sum(arr: np.ndarray, size: int) -> np.ndarray:
    """Sum over a size x size window centered on each pixel (edge-padded), by shifted adds."""
    r = size // 2
    h, w = arr.shape
    p = np.pad(arr, r, mode="edge")
    rows = p[:h] + p[1 : h + 1]
    for k in range(2, size):
        rows += p[k : k + h]
    out = rows[:, :w] + rows[:, 1 : w + 1]
    for k in range(2, size):
        out += rows[:, k : k + w]
    return out


def _harris_response(img: np.ndarray) -> np.ndarray:
    gx, gy = _sobel(img)
    sxx = _box_sum(gx * gx, HARRIS_WINDOW).astype(np.float64)
    syy = _box_sum(gy * gy, HARRIS_WINDOW).astype(np.float64)
    sxy = _box_sum(gx * gy, HARRIS_WINDOW).astype(np.float64)
    det = sxx * syy
    det -= np.square(sxy, out=sxy)
    trace = np.add(sxx, syy, out=sxx)
    k_trace2 = np.multiply(HARRIS_K, trace, out=syy)
    k_trace2 *= trace
    det -= k_trace2  # det - HARRIS_K * trace * trace, rounded step by step as written
    return det


def _nms_first_wins(response: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """3x3 non-max suppression; exact ties go to the row-major earlier pixel."""
    padded = np.pad(response, 1, mode="constant", constant_values=-np.inf)
    h, w = response.shape

    def nbr(dy, dx):
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    earlier = [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
    later = [(0, 1), (1, -1), (1, 0), (1, 1)]
    keep = candidates.copy()
    for dy, dx in earlier:
        keep &= response > nbr(dy, dx)
    for dy, dx in later:
        keep &= response >= nbr(dy, dx)
    return keep


def _disc_weights() -> np.ndarray:
    """(31 * 31, 2) moment weights (dx, dy) over a row-major patch, zero outside the disc."""
    r = ORIENTATION_RADIUS
    ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
    disc = (xs * xs + ys * ys) <= r * r
    return np.stack([xs * disc, ys * disc], axis=-1).reshape(-1, 2).astype(np.float64)


_DISC_WEIGHTS = _disc_weights()


def _moments(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(n, 2) integer intensity moments (m10, m01) of the discs centered at (ys, xs).

    A moment is a sum of integer products far below 2^53 in magnitude, so
    the float64 matrix product is exact in any summation order.
    """
    r = ORIENTATION_RADIUS
    windows = sliding_window_view(img, (2 * r + 1, 2 * r + 1))
    out = np.empty((len(ys), 2), dtype=np.int64)
    for start in range(0, len(ys), _ORIENTATION_CHUNK):
        chunk = slice(start, start + _ORIENTATION_CHUNK)
        patches = windows[ys[chunk] - r, xs[chunk] - r].reshape(-1, len(_DISC_WEIGHTS))
        out[chunk] = patches @ _DISC_WEIGHTS
    return out


def _intensity_centroid_angle(img: np.ndarray, y: int, x: int) -> float:
    [[m10, m01]] = _moments(img, np.array([y]), np.array([x])).tolist()
    return math.atan2(m01, m10)


def detect(image: GrayImage, max_features: int = 8000, threshold: int = FAST_THRESHOLD) -> list[Keypoint]:
    """Detect oriented corners, strongest Harris response first.

    Keypoints keep a BORDER_MARGIN-pixel margin so downstream description
    always samples inside the image. Ordering is deterministic: response
    descending, then row-major position. A negative ``max_features`` raises
    ``ValueError``; 0 returns no keypoints.
    """
    if max_features < 0:
        raise ValueError(f"max_features must be non-negative, got {max_features}")
    if image.width < MIN_IMAGE_SIDE or image.height < MIN_IMAGE_SIDE:
        raise ImageTooSmallError(
            f"image {image.width}x{image.height} below detection minimum "
            f"{MIN_IMAGE_SIDE}x{MIN_IMAGE_SIDE}"
        )
    img = image.pixels
    m = BORDER_MARGIN
    if image.width <= 2 * m or image.height <= 2 * m:
        return []

    corners = _fast_corner_mask(img, threshold, m)
    if not corners.any():
        return []
    response = _harris_response(img)
    interior = response[m:-m, m:-m]
    ys, xs = np.nonzero(_nms_first_wins(interior, corners))
    scores = interior[ys, xs]

    # np.nonzero is row-major, so a stable sort on the score alone breaks ties by position.
    order = np.argsort(-scores, kind="stable")[:max_features]
    ys, xs, scores = ys[order] + m, xs[order] + m, scores[order]
    moments = _moments(img, ys, xs).tolist()
    return [
        Keypoint(x=float(x), y=float(y), response=s, angle=math.atan2(m01, m10))
        for x, y, s, (m10, m01) in zip(xs.tolist(), ys.tolist(), scores.tolist(), moments)
    ]
