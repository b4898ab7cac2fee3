from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import corrupted
from firescene.raster import TEMP_MAX_C, TEMP_MIN_C, RasterFormatError
from firescene.tiff import load_thermal_tiff
from tiffutil import write_tiff


def test_constant_float32_field(tmp_path):
    path = tmp_path / "c.tif"
    write_tiff(path, np.full((512, 640), 25.0, dtype=np.float32))
    r = load_thermal_tiff(path)
    assert (r.width, r.height) == (640, 512)
    assert r.temps.min() == r.temps.max() == 25.0
    assert r.valid_count == 640 * 512


def test_big_endian(tmp_path):
    path = tmp_path / "be.tif"
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_tiff(path, data, endian="big")
    r = load_thermal_tiff(path)
    assert np.array_equal(r.temps, data.astype(np.float64))


def test_multi_band_rejected(tmp_path):
    path = tmp_path / "rgb.tif"
    write_tiff(path, np.zeros((4, 4), dtype=np.float32), samples_per_pixel=3)
    with pytest.raises(RasterFormatError, match="multi-band unsupported") as exc:
        load_thermal_tiff(path)
    assert exc.value.tag == 277
    assert exc.value.offset is not None


def test_uint16_scale_offset(tmp_path):
    path = tmp_path / "u16.tif"
    write_tiff(path, np.array([[11829, 6829]], dtype=np.uint16))
    r = load_thermal_tiff(path, scale=0.04, offset=-273.15)
    assert r.temps[0, 0] == 11829 * 0.04 - 273.15
    assert r.temps[0, 0] == pytest.approx(200.01, abs=1e-9)


def test_load_keeps_the_decoded_temperatures_without_a_copy(tmp_path):
    path = tmp_path / "f.tif"
    write_tiff(path, np.random.default_rng(0).uniform(0.0, 500.0, (512, 640)).astype(np.float32))
    tracemalloc.start()
    try:
        load_thermal_tiff(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The file bytes are freed once the float32 samples are joined, so the
    # samples, float64 temperatures and masks take 15 bytes a pixel; one more
    # copy of the samples would add 4 and one of the temperatures 8.
    assert peak <= 16 * 640 * 512


@pytest.mark.parametrize("endian", ["little", "big"])
@pytest.mark.parametrize(
    "dtype,sentinel,scale,offset",
    [("uint16", 0, 0.04, -273.15), ("float32", -9999.0, None, None)],
)
def test_tiff_decodes_samples_as_numpy(tmp_path, endian, dtype, sentinel, scale, offset):
    # ``sentinel`` is a common no-data sample; the reader takes no no-data value,
    # and the sentinel is invalid only because its temperature is implausible.
    rng = np.random.default_rng(5)
    if dtype == "uint16":
        samples = rng.integers(0, 2**16, size=(24, 32), dtype=np.uint16)
    else:
        samples = rng.uniform(-150.0, 2100.0, size=(24, 32)).astype(np.float32)
        samples[3, :4] = [np.nan, np.inf, -np.inf, -0.0]
    samples[5, 5:9] = sentinel
    write_tiff(tmp_path / "s.tif", samples, endian=endian)

    r = load_thermal_tiff(tmp_path / "s.tif", scale=scale, offset=offset)
    temps = samples.astype(np.float64)
    if scale is not None:
        temps = temps * scale + offset
    valid = np.isfinite(temps) & (temps >= TEMP_MIN_C) & (temps <= TEMP_MAX_C)
    assert not r.valid_mask[5, 5:9].any()
    assert r.temps.tobytes() == temps.tobytes()
    assert r.valid_mask.tobytes() == valid.tobytes()


def test_deflate_compression(tmp_path):
    data = np.linspace(0, 500, 64, dtype=np.float32).reshape(8, 8)
    plain, packed = tmp_path / "p.tif", tmp_path / "z.tif"
    write_tiff(plain, data)
    write_tiff(packed, data, compression=8, rows_per_strip=3)
    a = load_thermal_tiff(plain)
    b = load_thermal_tiff(packed)
    assert np.array_equal(a.temps, b.temps)


def test_unsupported_compression(tmp_path):
    path = tmp_path / "lzw.tif"
    write_tiff(path, np.zeros((4, 4), dtype=np.float32), compression=5)
    with pytest.raises(RasterFormatError, match="unsupported compression"):
        load_thermal_tiff(path)


def test_strip_layout_does_not_change_pixels(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 600, size=(16, 10)).astype(np.float32)
    rasters = []
    for i, rows in enumerate([16, 1, 3, 5]):
        path = tmp_path / f"s{i}.tif"
        write_tiff(path, data, rows_per_strip=rows)
        rasters.append(load_thermal_tiff(path))
    for r in rasters[1:]:
        assert np.array_equal(r.temps, rasters[0].temps)
        assert np.array_equal(r.valid_mask, rasters[0].valid_mask)


def test_strip_total_mismatch(tmp_path):
    path = tmp_path / "short.tif"
    write_tiff(path, np.zeros((4, 4), dtype=np.float32))
    buf = bytearray(path.read_bytes())
    # Truncate the single strip by patching StripByteCounts (find exact bytes is
    # fiddly; instead rewrite the file with a lying ImageLength).
    write_tiff(path, np.zeros((4, 4), dtype=np.float32))
    import struct

    # Patch ImageLength (tag 257) value from 4 to 5 -> decoded bytes won't match.
    buf = bytearray(path.read_bytes())
    n_entries = struct.unpack_from("<H", buf, 8)[0]
    for i in range(n_entries):
        off = 10 + 12 * i
        tag = struct.unpack_from("<H", buf, off)[0]
        if tag == 257:
            struct.pack_into("<I", buf, off + 8, 5)
    path.write_bytes(bytes(buf))
    with pytest.raises(RasterFormatError, match="dimension/strip mismatch"):
        load_thermal_tiff(path)


def test_not_a_tiff(tmp_path):
    path = tmp_path / "x.tif"
    path.write_bytes(b"PNG\x0d\x0a\x1a\x0a" + b"\0" * 16)
    with pytest.raises(RasterFormatError, match="byte order"):
        load_thermal_tiff(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "m.tif"
    write_tiff(path, np.zeros((2, 2), dtype=np.float32), magic=43)
    with pytest.raises(RasterFormatError, match="magic"):
        load_thermal_tiff(path)


def test_unsupported_sample_layout(tmp_path):
    path = tmp_path / "f16.tif"
    write_tiff(path, np.zeros((2, 2), dtype=np.uint16), sample_format=3)
    with pytest.raises(RasterFormatError, match="unsupported sample layout"):
        load_thermal_tiff(path)


@pytest.mark.parametrize("endian", ["little", "big"])
def test_unneeded_baseline_tags_accepted(tmp_path, endian):
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "sw.tif"
    software = list(b"thermal camera 1.2\0")
    write_tiff(
        path,
        data,
        endian=endian,
        extra_entries=[(282, 5, 1, [72, 1]), (305, 2, len(software), software)],
    )
    assert np.array_equal(load_thermal_tiff(path).temps, data.astype(np.float64))


def test_deflate_strip_inflating_past_raster_rejected_early(tmp_path):
    # 64 MiB of zeros deflate to about 65 KB; the file declares a 2x2 raster (16 bytes).
    packer = zlib.compressobj(9)
    bomb = b"".join(packer.compress(bytes(1 << 20)) for _ in range(64)) + packer.flush()
    path = tmp_path / "bomb.tif"
    write_tiff(path, np.zeros((2, 2), dtype=np.float32), compression=8, strips=[bomb])
    tracemalloc.start()
    try:
        with pytest.raises(RasterFormatError, match="dimension/strip mismatch"):
            load_thermal_tiff(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_truncated_deflate_strip_rejected(tmp_path):
    path = tmp_path / "cut.tif"
    strip = zlib.compress(np.zeros((2, 2), dtype=np.float32).tobytes())
    write_tiff(path, np.zeros((2, 2), dtype=np.float32), compression=8, strips=[strip[:-4]])
    with pytest.raises(RasterFormatError, match="bad Deflate strip"):
        load_thermal_tiff(path)


def test_dimensions_past_addressable_size_rejected(tmp_path):
    path = tmp_path / "huge.tif"
    write_tiff(path, np.zeros((2, 2), dtype=np.float32), compression=8)
    buf = bytearray(path.read_bytes())
    for entry_off in range(10, 10 + 12 * struct.unpack_from("<H", buf, 8)[0], 12):
        if struct.unpack_from("<H", buf, entry_off)[0] in (256, 257):  # ImageWidth, ImageLength
            struct.pack_into("<I", buf, entry_off + 8, 0xFFFFFFFF)
    path.write_bytes(bytes(buf))
    with pytest.raises(RasterFormatError, match="too large"):
        load_thermal_tiff(path)


@pytest.mark.parametrize(
    "layout", [{"endian": "little"}, {"endian": "big", "compression": 8}], ids=["le-raw", "be-deflate"]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_tiff_raises_only_raster_format_error(tmp_path_factory, layout, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tif"
    pixels = np.linspace(-20.0, 600.0, 30, dtype=np.float32).reshape(6, 5)
    write_tiff(path, pixels, rows_per_strip=2, **layout)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    try:
        load_thermal_tiff(path)
    except RasterFormatError:
        pass
