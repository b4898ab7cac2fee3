"""Brute-force Hamming matching with Lowe's ratio test.

Distances are computed blockwise on uint64 views with hardware popcount, so
full 8000x8000 comparisons stay well inside the per-pair time budget. Each
block of A rows accumulates into its uint16 output one descriptor word at a
time: the XOR and popcount of one word against every B row is a 2-D array, so
no block x Nb x words intermediate is built and summed. A 256-bit distance is
at most 256, well inside uint16.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 256


def hamming_matrix(desc_a: np.ndarray, desc_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) uint16 matrix of pairwise Hamming distances."""
    if desc_a.ndim != 2 or desc_b.ndim != 2 or desc_a.shape[1] != desc_b.shape[1]:
        raise ValueError("descriptor arrays must be (N, 32) with matching width")
    a = np.ascontiguousarray(desc_a).view(np.uint64)
    b = np.ascontiguousarray(desc_b).view(np.uint64)
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.uint16)
    for row in range(0, a.shape[0], _BLOCK_ROWS):
        block = out[row : row + _BLOCK_ROWS]
        for word in range(a.shape[1]):
            block += np.bitwise_count(a[row : row + _BLOCK_ROWS, word, None] ^ b[:, word])
    return out


def match(desc_a: np.ndarray, desc_b: np.ndarray, ratio: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor matches from A into B passing the ratio test.

    A match (i, j) survives iff d1 < ratio * d2 where d1/d2 are the best and
    second-best distances for query i. With d2 = 0 a match never survives,
    whatever the ratio. Ties break to the lower index in B. A
    single-descriptor B list has no second neighbor, which means no ambiguity:
    every nearest match is kept.

    Returns (pairs, distances): pairs is (M, 2) int64 of (index_a, index_b).
    """
    if len(desc_a) == 0 or len(desc_b) == 0:
        raise ValueError("descriptor lists must be non-empty")
    dist = hamming_matrix(desc_a, desc_b)
    j1 = dist.argmin(axis=1)  # first occurrence wins ties
    rows = np.arange(dist.shape[0])
    d1 = dist[rows, j1].astype(np.int64)

    if dist.shape[1] == 1:
        keep = np.ones(dist.shape[0], dtype=bool)
    else:
        dist[rows, j1] = np.iinfo(np.uint16).max
        d2 = dist.min(axis=1).astype(np.int64)
        keep = d1 < ratio * d2

    pairs = np.stack([rows[keep], j1[keep]], axis=1).astype(np.int64)
    return pairs, d1[keep]
