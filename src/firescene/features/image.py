"""8-bit grayscale image container for the feature matcher.

The package decodes no image file: callers decode with their own reader and
pass the pixels in through ``GrayImage.from_array`` or ``GrayImage.from_rgb``.
RGB collapses to gray with the integer BT.601 luma weights (77, 150, 29) / 256
for bit-reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_uint8(arr: np.ndarray) -> np.ndarray:
    """``arr`` as uint8, refusing any value that is not an integer in [0, 255]."""
    arr = np.asarray(arr)
    if arr.dtype == np.uint8:
        return arr
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison below
        cast = arr.astype(np.uint8)
    if not np.array_equal(cast, arr):
        raise ValueError("pixel values must be integers in [0, 255]")
    return cast


@dataclass(frozen=True)
class GrayImage:
    width: int
    height: int
    pixels: np.ndarray  # uint8, (height, width)

    def __post_init__(self) -> None:
        if self.pixels.shape != (self.height, self.width) or self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be a uint8 array of shape (height, width)")
        self.pixels.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> GrayImage:
        arr = np.ascontiguousarray(_as_uint8(arr))
        if arr.ndim != 2:
            raise ValueError(f"expected 2D gray array, got shape {arr.shape}")
        return cls(width=arr.shape[1], height=arr.shape[0], pixels=arr)

    @classmethod
    def from_rgb(cls, rgb: np.ndarray) -> GrayImage:
        rgb = _as_uint8(rgb)
        if rgb.ndim != 3 or rgb.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) RGB array, got shape {rgb.shape}")
        luma = (rgb.astype(np.uint32) @ np.array([77, 150, 29], dtype=np.uint32) + 128) >> 8
        return cls.from_array(luma.astype(np.uint8))
