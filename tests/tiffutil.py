"""Tiny TIFF writer used only to build test fixtures.

Writes classic single-band strip-organized TIFFs with configurable
endianness, strip layout, compression, and deliberately corrupt variants.
Independent of the package's reader.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_TYPE_ASCII = 2
_TYPE_SHORT = 3
_TYPE_LONG = 4
_TYPE_RATIONAL = 5
# Per field type: struct code and size in bytes of one value. A RATIONAL
# value is two LONGs, so its values list alternates numerator and denominator.
_CODE = {_TYPE_ASCII: "B", _TYPE_SHORT: "H", _TYPE_LONG: "I", _TYPE_RATIONAL: "II"}
_SIZE = {_TYPE_ASCII: 1, _TYPE_SHORT: 2, _TYPE_LONG: 4, _TYPE_RATIONAL: 8}


def _entries_bytes(order: str, entries: list[tuple[int, int, int, list[int]]], spill_base: int):
    """Pack IFD entries; values wider than 4 bytes spill after the IFD."""
    packed = []
    spill = b""
    for tag, ftype, count, values in entries:
        total = _SIZE[ftype] * count
        if total <= 4:
            raw = struct.pack(order + _CODE[ftype] * count, *values)
            raw += b"\0" * (4 - len(raw))
            packed.append(struct.pack(order + "HHI", tag, ftype, count) + raw)
        else:
            off = spill_base + len(spill)
            packed.append(struct.pack(order + "HHII", tag, ftype, count, off))
            spill += struct.pack(order + _CODE[ftype] * count, *values)
    return b"".join(packed), spill


def write_tiff(
    path,
    data: np.ndarray,
    *,
    endian: str = "little",
    rows_per_strip: int | None = None,
    compression: int = 1,
    samples_per_pixel: int = 1,
    sample_format: int | None = None,
    bits: int | None = None,
    magic: int = 42,
    extra_entries: list[tuple[int, int, int, list[int]]] | tuple = (),
    strips: list[bytes] | None = None,
) -> None:
    """Write ``data`` (2D float32 or uint16) as a single-band TIFF fixture.

    ``samples_per_pixel``, ``sample_format``, ``bits`` and ``magic`` can be
    forced to wrong values to produce corrupt files. ``extra_entries`` are
    (tag, field type, count, values) entries the reader does not need, such
    as Software or XResolution. ``strips`` replaces the encoded strips.
    """
    order = "<" if endian == "little" else ">"
    data = np.asarray(data)
    height, width = data.shape
    if data.dtype == np.float32:
        fmt = 3 if sample_format is None else sample_format
        nbits = 32 if bits is None else bits
    elif data.dtype == np.uint16:
        fmt = 1 if sample_format is None else sample_format
        nbits = 16 if bits is None else bits
    else:
        raise ValueError(f"fixture writer supports float32/uint16, not {data.dtype}")
    sample_dtype = data.dtype.newbyteorder(order)

    if rows_per_strip is None:
        rows_per_strip = height
    if strips is None:
        strips = []
        for y0 in range(0, height, rows_per_strip):
            raw = np.ascontiguousarray(data[y0 : y0 + rows_per_strip].astype(sample_dtype)).tobytes()
            strips.append(zlib.compress(raw) if compression in (8, 32946) else raw)

    entries = [
        (256, _TYPE_LONG, 1, [width]),
        (257, _TYPE_LONG, 1, [height]),
        (258, _TYPE_SHORT, 1, [nbits]),
        (259, _TYPE_SHORT, 1, [compression]),
        (277, _TYPE_SHORT, 1, [samples_per_pixel]),
        (278, _TYPE_LONG, 1, [rows_per_strip]),
        (339, _TYPE_SHORT, 1, [fmt]),
        *extra_entries,
    ]

    header = struct.pack(order + "2sHI", b"II" if endian == "little" else b"MM", magic, 8)
    n_entries = len(entries) + 2  # + StripOffsets, StripByteCounts
    extra_size = sum(_SIZE[t] * n for _, t, n, _ in extra_entries if _SIZE[t] * n > 4)
    ifd_off = 8
    entries_end = ifd_off + 2 + 12 * n_entries + 4
    strip_type = _TYPE_LONG
    offsets_size = 4 * len(strips) if len(strips) > 1 else 0
    counts_size = 4 * len(strips) if len(strips) > 1 else 0
    spill_base = entries_end
    data_base = entries_end + offsets_size + counts_size + extra_size

    # Spill arrays for multi-strip offset/count lists precede the pixel data.
    strip_offsets = []
    pos = data_base
    for s in strips:
        strip_offsets.append(pos)
        pos += len(s)
    strip_counts = [len(s) for s in strips]

    all_entries = entries + [
        (273, strip_type, len(strips), strip_offsets),
        (279, strip_type, len(strips), strip_counts),
    ]
    all_entries.sort(key=lambda e: e[0])
    packed, spill = _entries_bytes(order, all_entries, spill_base)
    assert len(spill) == offsets_size + counts_size + extra_size

    out = bytearray()
    out += header
    out += struct.pack(order + "H", n_entries)
    out += packed
    out += struct.pack(order + "I", 0)  # next IFD
    out += spill
    for s in strips:
        out += s
    with open(path, "wb") as fh:
        fh.write(out)
