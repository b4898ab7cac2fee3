"""Corner detection: FAST-9 segment test, Harris ranking, patch orientation.

Single scale by design; near-duplicate UAV frames share scale closely. A
keypoint passes two independent per-pixel tests: a contiguous arc of 9
circle pixels all brighter (or all darker) than the center by the
intensity threshold, and a Harris response above its 8 neighbours' (3x3
non-maximum suppression, exact ties to the row-major earlier pixel). It
carries the intensity-centroid orientation of its 31x31 circular patch.

The cheap test runs first. Sobel, the Harris window sums, the response and
its 3x3 maximum run over bands of ``_BAND_ROWS`` interior rows, in buffers
allocated once per call. A band reads ``_HALO`` rows and columns beyond its
own (1 for the suppression ring, 3 for the 7x7 window, 1 for Sobel), which
``BORDER_MARGIN`` holds, so nothing is padded; the ring is -inf only outside
the interior. Only the band's local maxima, a few percent of its pixels,
take the segment test, at their 16 circle pixels. Neither test reads the
other's result, so this order keeps the same pixels, row-major in each band:
the bands joined in order are the whole-image candidates, and one stable
sort on the score ranks them. The band buffers are freed before the moments
are taken, or the size of the moments' chunk temporary decides whether
glibc returns the freed pages and faults them in again on every call.

Each step is exact, so it equals bit for bit a float64 evaluation of the
same formulas in any summation order, whatever the band height. The
segment test packs a pixel's 16 circle comparisons into one word per
polarity and looks the word up in a table of arcs. Sobel gradients and
Harris window sums are int32 integers that cannot overflow
(``_HARRIS_SUM_BOUND``), and only ``det - k * trace^2`` is taken in
float64, from those exact sums. The centroid moments are integer sums whose
partial sums stay below 2^24 (``_MOMENT_SUM_BOUND``), which a float32
matrix product computes exactly, whatever its order. Each angle is
``math.atan2`` of the two moments: ``np.arctan2`` differs from it in the
last bit on some keypoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..records import Table
from .image import GrayImage, integer_at_least

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


def _disc_weights() -> np.ndarray:
    """(31 * 31, 2) moment weights (dx, dy) over a row-major patch, zero outside the disc."""
    r = ORIENTATION_RADIUS
    ys, xs = np.mgrid[-r : r + 1, -r : r + 1]
    disc = (xs * xs + ys * ys) <= r * r
    return np.stack([xs * disc, ys * disc], axis=-1).reshape(-1, 2).astype(np.float32)


_DISC_WEIGHTS = _disc_weights()

# A moment's terms are pixel * weight, at most 255 * |weight|, so any partial
# sum of them, in any order, is an integer of at most this magnitude.
_MOMENT_SUM_BOUND = 255 * int(np.abs(_DISC_WEIGHTS).sum(axis=0).max())
assert _MOMENT_SUM_BOUND < 2**24, "disc moments must be exact in float32"

_ORIENTATION_CHUNK = 512  # keypoints whose patches are gathered at once
_BAND_ROWS = 64  # interior rows a band covers; its planes stay within a few hundred KiB

# A band reads this far beyond its rows and columns: 1 for the NMS ring, 3 for
# the Harris window and 1 for Sobel. The margin holds it, so nothing is padded.
_HALO = 1 + HARRIS_WINDOW // 2 + 1
assert BORDER_MARGIN >= _HALO, "the border margin must hold a band's halo"


class ImageTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class Keypoint:
    x: float
    y: float
    response: float
    angle: float  # radians in (-pi, pi]


@dataclass(frozen=True, eq=False)
class KeypointTable(Table):
    """Keypoints as a ``records.Table`` of ``Keypoint`` rows: one read-only float64 (n,) column per field."""

    row = Keypoint

    x: np.ndarray
    y: np.ndarray
    response: np.ndarray
    angle: np.ndarray


def _arc_table() -> np.ndarray:
    """``table[word]``: the 16-bit circle word holds a circular run of FAST_ARC set bits."""
    words = np.arange(1 << 16, dtype=np.uint32)
    doubled = words | (words << 16)  # bit i + 16 repeats bit i, so runs may wrap
    run = doubled
    for k in range(1, FAST_ARC):
        run = run & (doubled >> k)
    return (run & 0xFFFF) != 0


_ARC = _arc_table()


def _segment_test(img: np.ndarray, ys: np.ndarray, xs: np.ndarray, threshold: int) -> np.ndarray:
    """bool (n,): whether each pixel (ys, xs) of ``img``, its circle inside ``img``, passes the segment test.

    Bit i of a pixel's bright (dark) word is set when circle pixel i is at least ``threshold``
    brighter (darker) than the center, compared in int16 so that centers near 0 and 255 do not wrap.
    """
    flat, at = img.ravel(), ys * img.shape[1] + xs
    center = flat[at].astype(np.int16)[:, None]
    ring = flat[at[:, None] + np.dot(CIRCLE, (1, img.shape[1]))]  # (n, 16), circle order
    flags = np.concatenate((ring >= center + threshold, ring <= center - threshold), axis=1)
    words = np.packbits(flags, bitorder="little").view("<u2")  # bright, dark per row; bit i is circle pixel i
    return _ARC[words].reshape(-1, 2).any(axis=1)


class _Bands:
    """The Harris response and its local maxima over row bands of one image's interior, with buffers every band reuses.

    The interior is the image less ``margin`` rows and columns on each
    side. A band is interior rows [y0, y1), at most ``rows`` of them, and
    spans the interior's full width; its kernels read the image up to
    ``_HALO`` pixels beyond it, which ``margin`` must hold.
    """

    def __init__(self, img: np.ndarray, margin: int, rows: int) -> None:
        h, w = img.shape
        self.img, self.m, self.h = np.ascontiguousarray(img), margin, h  # _segment_test gathers from its ravel()
        self.w = w - 2 * margin  # interior width
        n, c, r = rows, self.w, _HALO  # band rows, band columns, halo
        # Harris: the band with its halo in int32, Sobel, one window sum at a time, float64 sums.
        self.src32 = np.empty((n + 2 * r, c + 2 * r), dtype=np.int32)
        self.diff = np.empty((n + 2 * r, c + 2 * r - 2), dtype=np.int32)
        self.gx, self.gy, self.prod = np.empty((3, n + 2 * r - 2, c + 2 * r - 2), dtype=np.int32)
        self.rowsum = np.empty((n + 2, c + 2 * r - 2), dtype=np.int32)
        self.sum32 = np.empty((n + 2, c + 2), dtype=np.int32)
        self.sxx, self.syy, self.sxy, self.det = np.empty((4, n + 2, c + 2), dtype=np.float64)
        # The 3x3 maximum, across the columns and then down the rows, and the pixels that reach it.
        self.across, self.peak, self.top = np.empty((n + 2, c)), np.empty((n, c)), np.empty((n, c), dtype=bool)

    def gradients(self, y0: int, y1: int) -> tuple[np.ndarray, np.ndarray]:
        """int32 Sobel (gx, gy) of the band widened by ``_HALO - 1`` pixels on each side.

        A central difference, then [1, 2, 1] smoothing across it.
        """
        n, c, m, r = y1 - y0, self.w, self.m, _HALO
        src = self.src32[: n + 2 * r]
        np.copyto(src, self.img[y0 - r : y1 + r, m - r : m + c + r])
        d = self.diff[: n + 2 * r]
        gx, gy = self.gx[: n + 2 * r - 2], self.gy[: n + 2 * r - 2]
        np.subtract(src[:, 2:], src[:, :-2], out=d)
        np.left_shift(d[1:-1], 1, out=gx)
        gx += d[:-2]
        gx += d[2:]
        np.left_shift(src[:, 1:-1], 1, out=d)
        d += src[:, :-2]
        d += src[:, 2:]
        np.subtract(d[2:], d[:-2], out=gy)
        return gx, gy

    def window_sum(self, arr: np.ndarray) -> np.ndarray:
        """int32 sums of ``arr`` over each HARRIS_WINDOW x HARRIS_WINDOW window inside it, by shifted adds."""
        size = HARRIS_WINDOW
        n, c = arr.shape[0] - size + 1, arr.shape[1] - size + 1
        rows = np.add(arr[:n], arr[1 : n + 1], out=self.rowsum[:n])
        for k in range(2, size):
            rows += arr[k : k + n]
        out = np.add(rows[:, :c], rows[:, 1 : c + 1], out=self.sum32[:n])
        for k in range(2, size):
            out += rows[:, k : k + c]
        return out

    def response(self, y0: int, y1: int) -> np.ndarray:
        """float64 Harris response of the band with a 1-pixel ring: (y1 - y0 + 2, interior width + 2)."""
        gx, gy = self.gradients(y0, y1)
        n = y1 - y0 + 2
        prod = self.prod[: len(gx)]
        sxx, syy, sxy, det = self.sxx[:n], self.syy[:n], self.sxy[:n], self.det[:n]
        for a, b, s in ((gx, gx, sxx), (gy, gy, syy), (gx, gy, sxy)):
            np.copyto(s, self.window_sum(np.multiply(a, b, out=prod)))
        np.multiply(sxx, syy, out=det)
        det -= np.square(sxy, out=sxy)
        trace = np.add(sxx, syy, out=sxx)
        k_trace2 = np.multiply(HARRIS_K, trace, out=syy)
        k_trace2 *= trace
        det -= k_trace2  # det - HARRIS_K * trace * trace, rounded step by step as written
        return det

    def candidates(self, threshold: int, y0: int, y1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Image rows, columns and responses of the band's corners that survive the NMS, row-major.

        A pixel at its 3x3 maximum is at least its four later neighbours;
        the gather keeps those above their four earlier ones, so exact ties
        go to the row-major earlier pixel. Only those take the segment test.
        """
        n = y1 - y0
        response = self.response(y0, y1)
        response[:, 0] = response[:, -1] = -np.inf
        if y0 == self.m:
            response[0] = -np.inf
        if y1 == self.h - self.m:
            response[-1] = -np.inf
        across = np.maximum(response[:, :-2], response[:, 1:-1], out=self.across[: n + 2])
        np.maximum(across, response[:, 2:], out=across)
        peak = np.maximum(across[:-2], across[1:-1], out=self.peak[:n])
        np.maximum(peak, across[2:], out=peak)
        ys, xs = np.nonzero(np.greater_equal(response[1:-1, 1:-1], peak, out=self.top[:n]))
        stride = response.shape[1]
        flat = response.ravel()
        at = (ys + 1) * stride + (xs + 1)
        score = flat[at]
        keep = np.logical_and.reduce([score > flat[at - back] for back in (stride + 1, stride, stride - 1, 1)])
        ys, xs, score = ys[keep] + y0, xs[keep] + self.m, score[keep]
        corner = _segment_test(self.img, ys, xs, threshold)
        return ys[corner], xs[corner], score[corner]


def _moments(img: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(n, 2) integer intensity moments (m10, m01) of the discs centered at (ys, xs).

    Every partial sum of a moment is an integer below 2^24 in magnitude
    (``_MOMENT_SUM_BOUND``), so the float32 matrix product is exact in any
    summation order.
    """
    r = ORIENTATION_RADIUS
    windows = sliding_window_view(img, (2 * r + 1, 2 * r + 1))
    out = np.empty((len(ys), 2), dtype=np.int64)
    for start in range(0, len(ys), _ORIENTATION_CHUNK):
        chunk = slice(start, start + _ORIENTATION_CHUNK)
        patches = windows[ys[chunk] - r, xs[chunk] - r].reshape(-1, len(_DISC_WEIGHTS))
        out[chunk] = patches @ _DISC_WEIGHTS
    return out


def detect(image: GrayImage, max_features: int = 8000, threshold: int = FAST_THRESHOLD) -> KeypointTable:
    """Detect oriented corners, strongest Harris response first, as a ``KeypointTable``.

    Keypoints keep a BORDER_MARGIN-pixel margin so downstream description
    always samples inside the image. Ordering is deterministic: response
    descending, then row-major position. ``max_features`` and ``threshold``
    must be non-negative integers (``ValueError`` otherwise). A
    ``max_features`` of 0 returns no keypoints; above a ``threshold`` of 255
    no circle pixel can pass the segment test, so none are returned either.
    No keypoints is an empty table.
    """
    max_features = integer_at_least("max_features", max_features, 0)
    threshold = integer_at_least("threshold", threshold, 0)
    if image.width < MIN_IMAGE_SIDE or image.height < MIN_IMAGE_SIDE:
        raise ImageTooSmallError(
            f"image {image.width}x{image.height} below detection minimum "
            f"{MIN_IMAGE_SIDE}x{MIN_IMAGE_SIDE}"
        )
    img = image.pixels
    m = BORDER_MARGIN
    if image.width <= 2 * m or image.height <= 2 * m or threshold > 255:
        return KeypointTable(*np.empty((4, 0)))

    top, bottom = m, image.height - m
    bands = _Bands(img, m, min(_BAND_ROWS, bottom - top))
    found = [bands.candidates(threshold, y0, min(y0 + _BAND_ROWS, bottom)) for y0 in range(top, bottom, _BAND_ROWS)]
    del bands  # before _moments: see the module docstring
    ys, xs, scores = (np.concatenate(part) for part in zip(*found))

    # The bands are row-major, so a stable sort on the score alone breaks ties by position.
    order = np.argsort(-scores, kind="stable")[:max_features]
    ys, xs = ys[order], xs[order]
    m10, m01 = _moments(img, ys, xs).T.tolist()
    angle = np.fromiter(map(math.atan2, m01, m10), dtype=np.float64, count=len(order))
    return KeypointTable(xs.astype(np.float64), ys.astype(np.float64), scores[order], angle)
