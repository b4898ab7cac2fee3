"""Steered binary descriptors: 256 fixed intensity comparisons per keypoint.

The frozen sampling pattern is rotated to the keypoint orientation before
sampling (angles quantized to 32 steps so rotated integer offsets can be
precomputed once). Bit b is set when the patch is darker at the pair's first
point than at its second.
"""

from __future__ import annotations

import math

import numpy as np

from .brief_pattern import N_PAIRS, PATCH_RADIUS, PATTERN
from .detect import KeypointTable
from .image import GrayImage

DESCRIPTOR_BITS = N_PAIRS
ANGLE_BINS = 32
_DESCRIBE_CHUNK = 256  # keypoints gathered at once: a 1 MiB index buffer


def _rotated_patterns() -> np.ndarray:
    """(ANGLE_BINS, 256, 4) integer offsets, one table per quantized angle."""
    tables = np.empty((ANGLE_BINS, N_PAIRS, 4), dtype=np.int32)
    pat = PATTERN.astype(np.float64)
    for b in range(ANGLE_BINS):
        theta = 2.0 * math.pi * b / ANGLE_BINS
        c, s = math.cos(theta), math.sin(theta)
        for col in (0, 2):  # rotate both points of each pair
            x, y = pat[:, col], pat[:, col + 1]
            tables[b, :, col] = np.round(x * c - y * s)
            tables[b, :, col + 1] = np.round(x * s + y * c)
    assert np.abs(tables).max() <= PATCH_RADIUS
    return tables

_ROTATED = _rotated_patterns()


def describe(image: GrayImage, keypoints: KeypointTable) -> tuple[np.ndarray, KeypointTable]:
    """Compute packed 256-bit descriptors for every describable keypoint.

    Returns (descriptors, kept): descriptors are a (N, 32) uint8 array
    aligned 1:1 with ``kept``, the table of the surviving keypoints in their
    input order. Keypoints too close to the border to sample are filtered
    out, not fatal. A ``keypoints`` that is not a ``KeypointTable`` raises
    ``TypeError``; a keypoint with a non-finite x, y or angle raises
    ``ValueError``.

    Each keypoint rounds to its pixel half to even (``np.rint``, as
    ``round``) and its angle to the nearest of ``ANGLE_BINS`` bins
    (``np.remainder`` takes the angle modulo 2*pi as Python's ``%`` does).
    Both points of every pair are then gathered from the flattened image in
    one ``take`` per chunk of ``_DESCRIBE_CHUNK`` keypoints.
    """
    if not isinstance(keypoints, KeypointTable):
        raise TypeError(f"keypoints must be a KeypointTable, got {type(keypoints).__name__}")
    img = image.pixels
    h, w = img.shape
    if not all(np.isfinite(column).all() for column in (keypoints.x, keypoints.y, keypoints.angle)):
        raise ValueError("keypoint x, y and angle must be finite")
    x, y = np.rint(keypoints.x), np.rint(keypoints.y)
    inside = (PATCH_RADIUS <= x) & (x < w - PATCH_RADIUS) & (PATCH_RADIUS <= y) & (y < h - PATCH_RADIUS)
    idx = np.flatnonzero(inside)
    kept = keypoints.take(idx)
    if not kept:
        return np.empty((0, DESCRIPTOR_BITS // 8), dtype=np.uint8), kept

    base = y[idx].astype(np.intp) * w + x[idx].astype(np.intp)
    frac = np.remainder(kept.angle, 2.0 * math.pi) / (2.0 * math.pi)
    bins = np.rint(frac * ANGLE_BINS).astype(np.intp) % ANGLE_BINS
    rotated = _ROTATED.astype(np.intp)
    # (ANGLE_BINS, 2, N_PAIRS) flat offsets dy * w + dx of each pair's first and second point.
    offsets = np.ascontiguousarray((rotated[:, :, 1::2] * w + rotated[:, :, 0::2]).transpose(0, 2, 1))
    flat = img.ravel()
    out = np.empty((len(kept), DESCRIPTOR_BITS // 8), dtype=np.uint8)
    index = np.empty((min(len(kept), _DESCRIBE_CHUNK), 2, N_PAIRS), dtype=np.intp)  # reused by every chunk
    for start in range(0, len(kept), _DESCRIBE_CHUNK):
        chunk = slice(start, start + _DESCRIBE_CHUNK)
        # bins lie in [0, ANGLE_BINS); mode="clip" spares take the copy it makes of ``out`` under "raise".
        at = np.take(offsets, bins[chunk], axis=0, out=index[: len(bins[chunk])], mode="clip")
        at += base[chunk, None, None]
        v = flat.take(at)
        out[chunk] = np.packbits(v[:, 0] < v[:, 1], axis=1)
    return out, kept

