"""Minimal single-band TIFF reader for radiometric thermal rasters.

Supports classic little- or big-endian TIFF with one sample per pixel,
strip organization, no compression or Deflate, and IEEE float32 or unsigned
16-bit samples (the latter mapped to Celsius through an optional linear
scale/offset). Everything else fails loudly with the offending tag id and
byte offset rather than guessing.

Tag subset: ImageWidth (256), ImageLength (257), BitsPerSample (258),
Compression (259), StripOffsets (273), SamplesPerPixel (277),
StripByteCounts (279), SampleFormat (339). RowsPerStrip is not needed:
strips are decoded in listed order and validated against the pixel count.
Other tags are ignored, and entries of field types the reader does not
decode are skipped. Deflate output is capped at the size the dimensions
declare. ``read_ifd`` is also the Exif reader's bounds-checked IFD walk.
Samples are decoded by ``ThermalRaster.from_samples``; no value marks no-data.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .raster import RasterFormatError, ThermalRaster

TAG_IMAGE_WIDTH = 256
TAG_IMAGE_LENGTH = 257
TAG_BITS_PER_SAMPLE = 258
TAG_COMPRESSION = 259
TAG_STRIP_OFFSETS = 273
TAG_SAMPLES_PER_PIXEL = 277
TAG_STRIP_BYTE_COUNTS = 279
TAG_SAMPLE_FORMAT = 339

COMPRESSION_NONE = 1
COMPRESSION_DEFLATE_ADOBE = 8
COMPRESSION_DEFLATE_OLD = 32946

SAMPLEFORMAT_UINT = 1
SAMPLEFORMAT_IEEEFP = 3

TYPE_BYTE, TYPE_ASCII, TYPE_SHORT, TYPE_LONG, TYPE_RATIONAL = 1, 2, 3, 4, 5
INTEGER_TYPES = (TYPE_BYTE, TYPE_SHORT, TYPE_LONG)
# Field types the IFD reader decodes: struct code and size in bytes of one value.
_FIELD_TYPES = {TYPE_BYTE: ("B", 1), TYPE_ASCII: ("B", 1), TYPE_SHORT: ("H", 2),
                TYPE_LONG: ("I", 4), TYPE_RATIONAL: ("I", 8)}


class IfdEntry(NamedTuple):
    offset: int  # of the 12-byte entry in the buffer
    type: int
    values: str | list


def read_header(buf: bytes, base: int = 0) -> tuple[str, int]:
    """Byte order (``"<"`` or ``">"``) and first IFD offset of the TIFF header at ``base``."""
    if base + 8 > len(buf):
        raise RasterFormatError("file too short for a TIFF header", offset=base)
    byte_order = buf[base : base + 2]
    if byte_order == b"II":
        order = "<"
    elif byte_order == b"MM":
        order = ">"
    else:
        raise RasterFormatError(f"not a TIFF: byte order mark {byte_order!r}", offset=base)
    magic, ifd_off = struct.unpack_from(order + "HI", buf, base + 2)
    if magic != 42:
        raise RasterFormatError(f"not a classic TIFF: magic {magic}", offset=base + 2)
    return order, ifd_off


def read_ifd(buf: bytes, order: str, base: int, ifd_off: int) -> dict[int, IfdEntry]:
    """Decode the IFD at ``base + ifd_off`` into tag -> entry.

    ``base`` is where the TIFF header starts (0 for a TIFF file); the IFD
    offset and spilled-value offsets are relative to it. Values are a str
    (up to the first NUL) for ASCII, (numerator, denominator) pairs for
    RATIONAL and ints for BYTE, SHORT and LONG; entries of other field types
    are skipped.
    """
    start = base + ifd_off
    if start + 2 > len(buf):
        raise RasterFormatError("IFD offset past end of file", offset=start)
    (n_entries,) = struct.unpack_from(order + "H", buf, start)
    if start + 2 + 12 * n_entries > len(buf):
        raise RasterFormatError("IFD truncated", offset=start)

    ifd: dict[int, IfdEntry] = {}
    for entry_off in range(start + 2, start + 2 + 12 * n_entries, 12):
        tag, ftype, count = struct.unpack_from(order + "HHI", buf, entry_off)
        if ftype not in _FIELD_TYPES:
            continue
        code, size = _FIELD_TYPES[ftype]
        value_off = entry_off + 8
        if size * count > 4:
            value_off = base + struct.unpack_from(order + "I", buf, entry_off + 8)[0]
            if value_off + size * count > len(buf):
                raise RasterFormatError("value offset past end of file", offset=entry_off, tag=tag)
        if ftype == TYPE_ASCII:
            values = buf[value_off : value_off + count].split(b"\0", 1)[0].decode("ascii", "replace")
        else:
            n_items = 2 * count if ftype == TYPE_RATIONAL else count
            values = list(struct.unpack_from(f"{order}{n_items}{code}", buf, value_off))
            if ftype == TYPE_RATIONAL:
                values = list(zip(values[::2], values[1::2]))
        ifd[tag] = IfdEntry(entry_off, ftype, values)
    return ifd


def load_thermal_tiff(
    path: str | Path,
    *,
    scale: float | None = None,
    offset: float | None = None,
) -> ThermalRaster:
    """Load a single-band radiometric thermal TIFF as a ThermalRaster.

    ``scale``/``offset`` map raw samples to Celsius (``raw * scale + offset``),
    which is how unsigned 16-bit rasters encode temperature. Implausible
    temperatures are invalid; no sample value is read as no-data.
    """
    buf = Path(path).read_bytes()
    order, ifd_off = read_header(buf)
    ifd = read_ifd(buf, order, 0, ifd_off)

    def _offset_of(tag: int) -> int:
        return ifd[tag].offset if tag in ifd else ifd_off

    def _ints(tag: int, name: str, default: int | None = None) -> list[int]:
        """Values of an integer tag; ``default`` stands in for an absent optional one."""
        if tag not in ifd:
            if default is None:
                raise RasterFormatError(f"missing required tag {name}", offset=ifd_off, tag=tag)
            return [default]
        entry = ifd[tag]
        if entry.type not in INTEGER_TYPES or not entry.values:
            raise RasterFormatError(f"{name} is not an integer field", offset=entry.offset, tag=tag)
        return entry.values

    width = _ints(TAG_IMAGE_WIDTH, "ImageWidth")[0]
    height = _ints(TAG_IMAGE_LENGTH, "ImageLength")[0]
    if width < 1 or height < 1:
        raise RasterFormatError(f"degenerate dimensions {width}x{height}", offset=ifd_off)

    samples = _ints(TAG_SAMPLES_PER_PIXEL, "SamplesPerPixel", 1)[0]
    if samples != 1:
        raise RasterFormatError(
            f"multi-band unsupported (SamplesPerPixel={samples})",
            offset=_offset_of(TAG_SAMPLES_PER_PIXEL),
            tag=TAG_SAMPLES_PER_PIXEL,
        )

    bits = _ints(TAG_BITS_PER_SAMPLE, "BitsPerSample")[0]
    fmt = _ints(TAG_SAMPLE_FORMAT, "SampleFormat", SAMPLEFORMAT_UINT)[0]
    if (bits, fmt) == (32, SAMPLEFORMAT_IEEEFP):
        sample_dtype = np.dtype(order + "f4")
    elif (bits, fmt) == (16, SAMPLEFORMAT_UINT):
        sample_dtype = np.dtype(order + "u2")
    else:
        raise RasterFormatError(
            f"unsupported sample layout: {bits}-bit, SampleFormat={fmt}",
            offset=_offset_of(TAG_BITS_PER_SAMPLE),
            tag=TAG_BITS_PER_SAMPLE,
        )

    compression = _ints(TAG_COMPRESSION, "Compression", COMPRESSION_NONE)[0]
    if compression not in (COMPRESSION_NONE, COMPRESSION_DEFLATE_ADOBE, COMPRESSION_DEFLATE_OLD):
        raise RasterFormatError(
            f"unsupported compression {compression}",
            offset=_offset_of(TAG_COMPRESSION),
            tag=TAG_COMPRESSION,
        )

    strip_offsets = _ints(TAG_STRIP_OFFSETS, "StripOffsets")
    strip_counts = _ints(TAG_STRIP_BYTE_COUNTS, "StripByteCounts")
    if len(strip_offsets) != len(strip_counts):
        raise RasterFormatError(
            f"{len(strip_offsets)} strip offsets vs {len(strip_counts)} byte counts",
            offset=_offset_of(TAG_STRIP_BYTE_COUNTS),
            tag=TAG_STRIP_BYTE_COUNTS,
        )

    expected = width * height * sample_dtype.itemsize
    if expected >= sys.maxsize:  # the Deflate output cap below must fit a C ssize_t
        raise RasterFormatError(f"dimensions {width}x{height} too large", offset=ifd_off)
    # Strips stop being decoded once they hold more than the dimensions declare.
    # Uncompressed strips stay views of the file bytes until the one join below.
    file_view = memoryview(buf)
    chunks: list[bytes | memoryview] = []
    decoded = 0
    for strip_off, strip_len in zip(strip_offsets, strip_counts):
        if strip_off + strip_len > len(buf):
            raise RasterFormatError(
                "strip extends past end of file", offset=strip_off, tag=TAG_STRIP_OFFSETS
            )
        chunk = file_view[strip_off : strip_off + strip_len]
        if compression != COMPRESSION_NONE:
            inflater = zlib.decompressobj()
            try:
                chunk = inflater.decompress(chunk, expected - decoded + 1)
            except zlib.error as exc:
                raise RasterFormatError(
                    f"bad Deflate strip: {exc}", offset=strip_off, tag=TAG_COMPRESSION
                ) from exc
            if not inflater.eof and decoded + len(chunk) <= expected:
                raise RasterFormatError(
                    "bad Deflate strip: incomplete or truncated stream",
                    offset=strip_off,
                    tag=TAG_COMPRESSION,
                )
        chunks.append(chunk)
        decoded += len(chunk)
        if decoded > expected:
            break
    if decoded != expected:
        raise RasterFormatError(
            f"dimension/strip mismatch: decoded {decoded} bytes, "
            f"expected {expected} for {width}x{height}",
            offset=_offset_of(TAG_STRIP_OFFSETS),
            tag=TAG_STRIP_OFFSETS,
        )

    raw_samples = np.frombuffer(b"".join(chunks), dtype=sample_dtype).reshape(height, width)
    del chunk, chunks, file_view, buf  # the samples are decoded; free the file before widening them
    return ThermalRaster.from_samples(raw_samples, scale, offset)
