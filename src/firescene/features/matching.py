"""Brute-force Hamming matching with Lowe's ratio test.

Descriptors are compared as four uint64 words with hardware popcount. A is
walked in blocks of ``_BLOCK_ROWS`` rows; B's words are held transposed, so
each word is one contiguous row. For each block, one XOR per word against
every B row goes through a (block, Nb) uint64 buffer, its popcount through a
uint8 buffer, and the sum into a (block, Nb) uint16 buffer; the three are
allocated once per call and reused by every block. A 256-bit distance is at
most 256, well inside uint16. ``match`` reduces each block to its nearest and
second-nearest distances while the block is still in cache, so the Na x Nb
distance matrix is never built; ``hamming_matrix`` copies each block into
its output.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .describe import DESCRIPTOR_BITS

_BLOCK_ROWS = 64  # at 2000 B rows, a block's XOR buffer (1 MB) stays in L2 cache
_DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8


def _words(desc: np.ndarray) -> np.ndarray:
    """Packed descriptors as (N, 4) uint64 words; anything but (N, 32) uint8 raises."""
    desc = np.asarray(desc)
    if desc.ndim != 2 or desc.dtype != np.uint8 or desc.shape[1] != _DESCRIPTOR_BYTES:
        raise ValueError(f"descriptor arrays must be (N, {_DESCRIPTOR_BYTES}) uint8")
    return np.ascontiguousarray(desc).view(np.uint64)


def _blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield (rows, distances) for each block of A rows, distances a (block, Nb) uint16 array.

    ``a`` and ``b`` are ``_words`` arrays. The distance buffer is overwritten
    by the next block.
    """
    b_words = np.ascontiguousarray(b.T)
    shape = (min(_BLOCK_ROWS, len(a)), b_words.shape[1])
    xor = np.empty(shape, dtype=np.uint64)
    count = np.empty(shape, dtype=np.uint8)
    dist = np.empty(shape, dtype=np.uint16)
    for start in range(0, len(a), _BLOCK_ROWS):
        rows = a[start : start + _BLOCK_ROWS]
        x, c, d = xor[: len(rows)], count[: len(rows)], dist[: len(rows)]
        for word, b_word in enumerate(b_words):
            np.bitwise_xor(rows[:, word, None], b_word, out=x)
            if word == 0:
                np.bitwise_count(x, out=d)
            else:
                d += np.bitwise_count(x, out=c)
        yield slice(start, start + len(rows)), d


def hamming_matrix(desc_a: np.ndarray, desc_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) uint16 matrix of pairwise Hamming distances."""
    a, b = _words(desc_a), _words(desc_b)
    out = np.empty((len(a), len(b)), dtype=np.uint16)
    for rows, dist in _blocks(a, b):
        out[rows] = dist
    return out


def match(desc_a: np.ndarray, desc_b: np.ndarray, ratio: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor matches from A into B passing the ratio test.

    A match (i, j) survives iff d1 < ratio * d2 where d1/d2 are the best and
    second-best distances for query i. With d2 = 0 a match never survives,
    whatever the ratio. Ties break to the lower index in B. A
    single-descriptor B list has no second neighbor, which means no ambiguity:
    every nearest match is kept. Distances are reduced block by block of A
    rows; no Na x Nb matrix is built. A negative or NaN ratio raises ValueError.

    Returns (pairs, distances): pairs is (M, 2) int64 of (index_a, index_b).
    """
    if not ratio >= 0:
        raise ValueError(f"ratio must be non-negative, got {ratio!r}")
    a, b = _words(desc_a), _words(desc_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("descriptor lists must be non-empty")
    j1 = np.empty(len(a), dtype=np.int64)
    d1 = np.empty(len(a), dtype=np.int64)
    d2 = np.empty(len(a), dtype=np.int64)
    for rows, dist in _blocks(a, b):
        nearest = dist.argmin(axis=1)  # first occurrence wins ties
        block_rows = np.arange(len(nearest))
        j1[rows] = nearest
        d1[rows] = dist[block_rows, nearest]
        dist[block_rows, nearest] = np.iinfo(np.uint16).max
        d2[rows] = dist.min(axis=1)

    keep = np.ones(len(a), dtype=bool) if len(b) == 1 else d1 < ratio * d2
    pairs = np.stack([np.flatnonzero(keep), j1[keep]], axis=1)
    return pairs, d1[keep]
