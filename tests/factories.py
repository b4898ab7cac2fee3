"""Hand-construction helpers for domain objects, and a Hypothesis strategy for
corrupt files, used across test modules."""

from __future__ import annotations

import math
from typing import Any, Iterable, TypeVar

import numpy as np
from hypothesis import strategies as st

from firescene.hotspots import Hotspot
from firescene.records import Table, _column_spec

_T = TypeVar("_T", bound=Table)


def table_from_rows(cls: type[_T], rows: Iterable[Any]) -> _T:
    """A ``cls`` table of ``rows``; an int beyond int64 raises ``OverflowError``."""
    rows = list(rows)
    return cls(*(
        np.array([getattr(r, field) for r in rows], dtype=dtype).reshape(len(rows), *shape)
        for field, dtype, shape in _column_spec(cls)
    ))


def make_hotspot(
    idx: int,
    cx: float,
    cy: float,
    *,
    area_m2: float = 2.0,
    peak_c: float = 300.0,
    gsd: float = 1.0,
    pixel_count: int | None = None,
) -> Hotspot:
    """Hotspot with centroid (cx, cy) in pixels and a consistent radius."""
    if pixel_count is None:
        pixel_count = max(5, round(area_m2 / (gsd * gsd)))
    return Hotspot(
        id=idx,
        pixel_count=pixel_count,
        centroid_px=(cx, cy),
        centroid_m=(cx * gsd, cy * gsd),
        area_m2=area_m2,
        radius_m=math.sqrt(area_m2 / math.pi),
        peak_temp_c=peak_c,
        peak_px=(round(cx), round(cy)),
    )


def disk_area(radius_m: float) -> float:
    return math.pi * radius_m * radius_m


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """``blob`` cut at a drawn length, or with one to four drawn bytes flipped."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    buf = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        buf[draw(st.integers(0, len(buf) - 1))] ^= draw(st.integers(1, 255))
    return bytes(buf)
