"""Seeded inputs for the firescene benchmark, written by the benchmark's own encoders.

Every file the program reads in a run (radiometric TIFF, JPEG with Exif GPS,
geoid grid JSON, SRTM ``.hgt`` tile) is encoded here, never by the package, so
a fault in one of its readers cannot hide behind the same fault in a writer.

``build(workload, seed, rundir)`` writes the inputs and returns two things:
the manifest the worker process runs (one entry per operation of a round) and
the ground truth the checks compare the outputs against. The truth follows
from how each input was built: the samples written, the planted disk layout
and peaks, and AGL from planar geoid and terrain models.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 512
FOV_DIAG_DEG = 61.0  # the camera FOV the frames declare (parse_exif_gps default)

# Planar geoid undulation and terrain: bilinear interpolation reproduces a
# plane, so the expected AGL is exact up to rounding.
GEOID_ORIGIN = (34.0, -119.0)
GEOID_SPACING_DEG = 0.25
GEOID_SHAPE = (5, 9)  # rows step north, columns step east
DEM_ANCHORS = ((34, -119), (34, -118))  # south-west corners of the two tiles
DEM_SIDE = 1201  # SRTM3: 3 arc-second posts


def geoid_n(lat: float, lon: float) -> float:
    return -33.0 + 2.0 * (lat - 34.0) - 1.5 * (lon + 119.0)


def ground_m(lat: float, lon: float) -> float:
    """Terrain rising 1 m per SRTM3 post north and 1 m per post east."""
    return 400.0 + (DEM_SIDE - 1) * ((lat - 34.0) + (lon + 119.0))


# --- encoders ------------------------------------------------------------------

_SHORT, _LONG = 3, 4


def encode_tiff(samples: np.ndarray, *, big_endian: bool = False, deflate: bool = False,
                rows_per_strip: int | None = None) -> bytes:
    """Classic single-band strip TIFF of float32 or uint16 samples."""
    order = ">" if big_endian else "<"
    height, width = samples.shape
    if samples.dtype == np.float32:
        bits, fmt = 32, 3
    elif samples.dtype == np.uint16:
        bits, fmt = 16, 1
    else:
        raise ValueError(f"unsupported sample type {samples.dtype}")
    rows = rows_per_strip or height
    strips = []
    for y0 in range(0, height, rows):
        raw = samples[y0 : y0 + rows].astype(samples.dtype.newbyteorder(order)).tobytes()
        strips.append(zlib.compress(raw, 6) if deflate else raw)

    offsets, pos = [], 8
    for s in strips:
        offsets.append(pos)
        pos += len(s)
    ifd_off = pos + (pos & 1)
    entries = [
        (256, _LONG, [width]),
        (257, _LONG, [height]),
        (258, _SHORT, [bits]),
        (259, _SHORT, [8 if deflate else 1]),
        (262, _SHORT, [1]),
        (273, _LONG, offsets),
        (277, _SHORT, [1]),
        (278, _LONG, [rows]),
        (279, _LONG, [len(s) for s in strips]),
        (339, _SHORT, [fmt]),
    ]
    spill_off = ifd_off + 2 + 12 * len(entries) + 4
    ifd, spill = b"", b""
    for tag, ftype, values in entries:
        code = "H" if ftype == _SHORT else "I"
        packed = struct.pack(order + code * len(values), *values)
        if len(packed) <= 4:
            ifd += struct.pack(order + "HHI", tag, ftype, len(values)) + packed.ljust(4, b"\0")
        else:
            ifd += struct.pack(order + "HHII", tag, ftype, len(values), spill_off + len(spill))
            spill += packed
    head = (b"MM" if big_endian else b"II") + struct.pack(order + "HI", 42, ifd_off)
    body = head + b"".join(strips)
    body += b"\0" * (ifd_off - len(body))
    return body + struct.pack(order + "H", len(entries)) + ifd + struct.pack(order + "I", 0) + spill


def dms_rationals(value: float) -> list[tuple[int, int]]:
    """Degrees, minutes and 1/10000 seconds of ``abs(value)``."""
    v = abs(value)
    deg = int(v)
    minutes = int((v - deg) * 60.0)
    sec = (v - deg - minutes / 60.0) * 3600.0
    return [(deg, 1), (minutes, 1), (round(sec * 10000), 10000)]


def rationals_to_degrees(dms: list[tuple[int, int]]) -> float:
    return dms[0][0] / dms[0][1] + dms[1][0] / dms[1][1] / 60.0 + dms[2][0] / dms[2][1] / 3600.0


def encode_gps_jpeg(lat_dms, lon_dms, alt_rational, *, with_gps: bool = True) -> bytes:
    """SOI, an APP1 Exif segment (IFD0 with Make and the GPS IFD pointer), EOI.

    Latitude is north and longitude west. With ``with_gps=False`` IFD0 holds
    only Make. Layout: TIFF header at 8-byte offset 0, IFD0 at 8, GPS IFD
    right after IFD0, rationals after the GPS IFD.
    """
    o = "<"
    ifd0_entries = [(271, 2, 4, b"DJI\0")]
    n0 = 2 if with_gps else 1
    gps_off = 8 + 2 + 12 * n0 + 4
    if with_gps:
        ifd0_entries.append((0x8825, _LONG, 1, struct.pack(o + "I", gps_off)))
    ifd0 = struct.pack(o + "H", len(ifd0_entries))
    for tag, ftype, count, payload in ifd0_entries:
        ifd0 += struct.pack(o + "HHI", tag, ftype, count) + payload
    ifd0 += struct.pack(o + "I", 0)
    tiff = b"II" + struct.pack(o + "HI", 42, 8) + ifd0
    if with_gps:
        gps_entries = 7
        data_off = gps_off + 2 + 12 * gps_entries + 4
        data = b""

        def rationals(pairs):
            nonlocal data
            off = data_off + len(data)
            data += b"".join(struct.pack(o + "II", n, d) for n, d in pairs)
            return struct.pack(o + "I", off)

        entries = [
            (0, 1, 4, bytes([2, 3, 0, 0])),
            (1, 2, 2, b"N\0\0\0"),
            (2, 5, 3, rationals(lat_dms)),
            (3, 2, 2, b"W\0\0\0"),
            (4, 5, 3, rationals(lon_dms)),
            (5, 1, 1, b"\0\0\0\0"),
            (6, 5, 1, rationals([alt_rational])),
        ]
        gps = struct.pack(o + "H", gps_entries)
        for tag, ftype, count, payload in entries:
            gps += struct.pack(o + "HHI", tag, ftype, count) + payload
        tiff += gps + struct.pack(o + "I", 0) + data
    payload = b"Exif\0\0" + tiff
    return b"\xff\xd8\xff\xe1" + struct.pack(">H", 2 + len(payload)) + payload + b"\xff\xd9"


def encode_geoid_json() -> str:
    rows, cols = GEOID_SHAPE
    lat0, lon0 = GEOID_ORIGIN
    values = [
        repr(geoid_n(lat0 + r * GEOID_SPACING_DEG, lon0 + c * GEOID_SPACING_DEG))
        for r in range(rows)
        for c in range(cols)
    ]
    return (
        f'{{"origin_lat": {lat0}, "origin_lon": {lon0}, "spacing_deg": {GEOID_SPACING_DEG}, '
        f'"nrows": {rows}, "ncols": {cols}, "values": [{", ".join(values)}]}}\n'
    )


def encode_hgt(anchor_lat: int, anchor_lon: int) -> bytes:
    """Big-endian int16 posts, row 0 on the north edge, columns west to east."""
    n = DEM_SIDE
    north = (anchor_lat + 1 - 34) * (n - 1)
    east = (anchor_lon + 119) * (n - 1)
    rows = north - np.arange(n, dtype=np.int32)[:, None]
    cols = east + np.arange(n, dtype=np.int32)[None, :]
    return (400 + rows + cols).astype(">i2").tobytes()


def hgt_name(anchor_lat: int, anchor_lon: int) -> str:
    return f"N{anchor_lat:02d}W{-anchor_lon:03d}.hgt"


# --- thermal frames ---------------------------------------------------------------

DISK_R = 15
RIM_C = 230.0


def _background(rng: np.random.Generator) -> np.ndarray:
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH]
    slope = rng.uniform(10.0, 40.0)
    temps = 18.0 + slope * xs / WIDTH + rng.normal(0.0, 2.5, (HEIGHT, WIDTH))
    return temps


def _stamp_disk(temps: np.ndarray, cx: int, cy: int, r: int, peak: float, rim: float = RIM_C) -> None:
    """Cone from ``peak`` at the centre down to ``rim`` at radius ``r``: a unique maximum."""
    ys, xs = np.mgrid[cy - r : cy + r + 1, cx - r : cx + r + 1]
    d = np.hypot(xs - cx, ys - cy)
    inside = d <= r
    patch = temps[cy - r : cy + r + 1, cx - r : cx + r + 1]
    patch[inside] = peak - (peak - rim) * d[inside] / r


def _keep_out(centres, r: int, margin: int) -> np.ndarray:
    """Mask of pixels farther than ``r + margin`` from every centre."""
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH]
    free = np.ones((HEIGHT, WIDTH), dtype=bool)
    for cx, cy in centres:
        free &= (xs - cx) ** 2 + (ys - cy) ** 2 > (r + margin) ** 2
    return free


def _layout(rng: np.random.Generator, kind: str, r: int) -> list[tuple[int, int]]:
    """Disk centres: 'line' (4 collinear, 110 px apart), 'compact' (3 in a
    37 px triangle), 'spread' (4 near the quadrant centres)."""
    if kind == "line":
        theta = rng.uniform(0.0, math.pi)
        cx0, cy0 = WIDTH / 2 + rng.uniform(-20, 20), HEIGHT / 2 + rng.uniform(-20, 20)
        ux, uy = math.cos(theta), math.sin(theta)
        return [(round(cx0 + k * 110 * ux), round(cy0 + k * 110 * uy)) for k in (-1.5, -0.5, 0.5, 1.5)]
    if kind == "compact":
        cx0 = int(rng.integers(r + 20, WIDTH - r - 60))
        cy0 = int(rng.integers(r + 20, HEIGHT - r - 60))
        return [(cx0, cy0), (cx0 + 36, cy0 + 5), (cx0 + 14, cy0 + 34)]
    if kind == "spread":
        anchors = [(130, 115), (510, 120), (135, 395), (505, 390)]
        return [(ax + int(rng.integers(-25, 26)), ay + int(rng.integers(-25, 26))) for ax, ay in anchors]
    raise ValueError(kind)


def _peaks(rng: np.random.Generator, kind: str, n: int) -> list[float]:
    """'similar': within 3n C of each other; 'different': 150-200 C apart."""
    if kind == "similar":
        base = float(rng.integers(420, 560))
        order = rng.permutation(n)
        return [base + 3.0 * k for k in order]
    base = float(rng.integers(300, 360))
    step = 150.0 if n == 4 else 200.0
    order = rng.permutation(n)
    return [base + step * k for k in order]


def fire_frame(rng: np.random.Generator, layout: str, peaks: str, *, r: int = DISK_R,
               embers: float = 0.01, speckle: float = 0.0, dropouts: int = 0):
    """A frame of planted disks plus isolated embers or dense speckle.

    Embers and speckle stay at least 3 px from every disk, so the planted
    disks are exactly the components that can pass the filters.
    """
    temps = _background(rng)
    centres = _layout(rng, layout, r)
    peak_values = _peaks(rng, peaks, len(centres))
    free = _keep_out(centres, r, 3)
    if embers:
        idx = np.flatnonzero(free)
        pick = rng.choice(idx, size=int(embers * temps.size), replace=False)
        temps.flat[pick] = rng.uniform(200.0, 420.0, pick.size)
    if speckle:
        hit = free & (rng.random(temps.shape) < speckle / free.mean())
        temps[hit] = rng.uniform(200.0, 280.0, int(hit.sum()))
    for (cx, cy), p in zip(centres, peak_values):
        _stamp_disk(temps, cx, cy, r, p)
    temps = temps.astype(np.float32)
    if dropouts:
        idx = np.flatnonzero(free)
        temps.flat[rng.choice(idx, size=dropouts, replace=False)] = np.nan
    hottest = centres[int(np.argmax(peak_values))]
    return temps, {"layout": layout, "peaks": peaks, "hottest_px": hottest, "n_planted": len(centres)}


def cold_frame(rng: np.random.Generator):
    temps = _background(rng)
    for _ in range(3):
        cx, cy = int(rng.integers(40, WIDTH - 40)), int(rng.integers(40, HEIGHT - 40))
        _stamp_disk(temps, cx, cy, 20, float(rng.uniform(120.0, 180.0)), rim=60.0)  # warm, below 200 C
    return temps.astype(np.float32), {"layout": "none", "peaks": "none", "hottest_px": None, "n_planted": 0}


def crowded_frame(rng: np.random.Generator, peaks: str):
    """50 x 40 embers of 5 x 5 px on a 12 px grid (jitter +-1 px), one hotter than the rest.

    At AGL near 300 m the merge distance is about 18 px, so the whole field
    is one cluster; 'similar' peaks lie in 290-310 C, 'different' peaks
    alternate near 300 C and 700 C.
    """
    temps = _background(rng)
    gy, gx = np.mgrid[0:40, 0:50]
    cy = 16 + 12 * gy + rng.integers(-1, 2, gy.shape)
    cx = 20 + 12 * gx + rng.integers(-1, 2, gx.shape)
    if peaks == "similar":
        pk = rng.uniform(290.0, 310.0, gy.shape)
    else:
        pk = np.where((gx + gy) % 2 == 0, 300.0, 700.0) + rng.uniform(-5.0, 5.0, gy.shape)
    hot = (int(rng.integers(0, 40)), int(rng.integers(0, 50)))
    pk[hot] = 950.0
    for y, x, p in zip(cy.ravel(), cx.ravel(), pk.ravel()):
        temps[y - 2 : y + 3, x - 2 : x + 3] = p - 15.0
        temps[y, x] = p
    hottest = (int(cx[hot]), int(cy[hot]))
    return temps.astype(np.float32), {"layout": "spread", "peaks": peaks, "hottest_px": hottest,
                                      "n_planted": int(gy.size)}


def _flight(rng: np.random.Generator, agl_target: float):
    """Position and ellipsoidal altitude for a target AGL, as Exif rationals."""
    lat = float(rng.uniform(34.30, 34.70))
    lon = -float(rng.uniform(117.60, 118.40))
    lat_dms, lon_dms = dms_rationals(lat), dms_rationals(lon)
    lat_q, lon_q = rationals_to_degrees(lat_dms), -rationals_to_degrees(lon_dms)
    alt = agl_target + geoid_n(lat_q, lon_q) + ground_m(lat_q, lon_q)
    alt_r = (round(alt * 1000), 1000)
    agl = alt_r[0] / alt_r[1] - geoid_n(lat_q, lon_q) - ground_m(lat_q, lon_q)
    return lat_dms, lon_dms, alt_r, agl


# AGL ranges well inside the four altitude bins; line layouts need 60 m or
# more so that their 330 px extent exceeds the 20 m linearity distance.
AGL_RANGES = {0: (36.0, 46.0), 1: (60.0, 90.0), 2: (110.0, 140.0), 3: (170.0, 230.0)}

# label_corpus round: (name, content, layout, peaks, altitude bin, encoding)
CORPUS = (
    ("t00", "fire", "line", "similar", 1, "f32"),
    ("t01", "fire", "compact", "similar", 0, "f32"),
    ("t02", "fire", "spread", "similar", 2, "f32"),
    ("t03", "fire", "line", "different", 2, "f32"),
    ("t04", "fire", "compact", "different", 3, "f32"),
    ("t05", "fire", "spread", "different", 0, "f32"),
    ("t06", "fire", "line", "similar", 3, "f32"),
    ("t07", "fire", "compact", "similar", 2, "f32"),
    ("t08", "fire", "spread", "similar", 1, "f32"),
    ("t09", "fire", "line", "different", 1, "f32"),
    ("t10", "fire", "compact", "different", 0, "f32"),
    ("t11", "fire", "spread", "different", 3, "f32"),
    ("t12", "fire", "line", "similar", 2, "f32"),
    ("t13", "fire", "spread", "similar", 0, "f32"),
    ("c00", "cold", None, None, 1, "f32"),
    ("c01", "cold", None, None, 3, "f32"),
    ("g00", "fire", "spread", "different", None, "f32"),
    ("g01", "fire", "compact", "similar", None, "f32"),
    ("u00", "fire", "compact", "similar", 1, "u16"),
    ("u01", "fire", "line", "different", 3, "u16"),
    ("d00", "fire", "spread", "similar", 2, "deflate"),
    ("d01", "fire", "line", "different", 1, "deflate"),
    ("x00", "fire", "spread", "similar", 1, "cut_gps"),
    ("x01", "fire", "compact", "different", 2, "cut_ifd0"),
)

U16_SCALE, U16_OFFSET = 0.0625, -100.0
TRUNCATED_SEED = 20260418  # truncated frames do not depend on --seed: they fail every run
CUT_AT = {"cut_gps": 156, "cut_ifd0": 30}  # inside the GPS rationals / inside IFD0


def _write_geo(rundir: Path) -> None:
    (rundir / "geoid.json").write_text(encode_geoid_json())
    (rundir / "dem").mkdir()
    for a_lat, a_lon in DEM_ANCHORS:
        (rundir / "dem" / hgt_name(a_lat, a_lon)).write_bytes(encode_hgt(a_lat, a_lon))


def _write_frame(rundir: Path, rng: np.random.Generator, name: str, temps_f32: np.ndarray,
                 info: dict, agl_range: tuple[float, float] | None, encoding: str):
    """Encode one frame pair (TIFF + JPEG); return its manifest entry and truth."""
    op = {"id": name, "tiff": f"frames/{name}.tif", "jpeg": f"frames/{name}.jpg",
          "scale": None, "offset": None}
    if encoding == "u16":
        raw = np.round((temps_f32.astype(np.float64) - U16_OFFSET) / U16_SCALE).astype(np.uint16)
        tiff = encode_tiff(raw, rows_per_strip=64)
        temps = raw.astype(np.float64) * U16_SCALE + U16_OFFSET
        op["scale"], op["offset"] = U16_SCALE, U16_OFFSET
    else:
        tiff = encode_tiff(temps_f32, big_endian=encoding == "deflate", deflate=encoding == "deflate",
                           rows_per_strip=32 if encoding == "deflate" else None)
        temps = temps_f32.astype(np.float64)
    agl = None
    if agl_range is None:
        jpeg = encode_gps_jpeg(None, None, None, with_gps=False)
    else:
        lat_dms, lon_dms, alt_r, agl = _flight(rng, float(rng.uniform(*agl_range)))
        jpeg = encode_gps_jpeg(lat_dms, lon_dms, alt_r)
        if encoding in CUT_AT:
            jpeg = jpeg[: CUT_AT[encoding]]
            agl = None  # no usable metadata: the frame is labeled without AGL
    (rundir / op["tiff"]).write_bytes(tiff)
    (rundir / op["jpeg"]).write_bytes(jpeg)
    truth = dict(info, id=name, temps=temps, agl=agl, truncated=encoding in CUT_AT)
    return op, truth


def _label_workload(workload: str, seed: int, rundir: Path):
    _write_geo(rundir)
    (rundir / "frames").mkdir()
    ops, truths = [], []
    if workload == "label_corpus":
        for name, content, layout, peaks, agl_bin, encoding in CORPUS:
            frame_seed = TRUNCATED_SEED if encoding in CUT_AT else seed
            rng = np.random.default_rng([frame_seed, int(name[1:]), ord(name[0])])
            if content == "cold":
                temps, info = cold_frame(rng)
            else:
                temps, info = fire_frame(rng, layout, peaks, dropouts=40 if encoding == "f32" else 0)
            agl_range = None if agl_bin is None else AGL_RANGES[agl_bin]
            op, truth = _write_frame(rundir, rng, name, temps, info, agl_range, encoding)
            ops.append(op)
            truths.append(truth)
    else:
        plan = (
            ("s00", lambda rng: fire_frame(rng, "spread", "different", r=24, embers=0.0, speckle=0.30),
             (22.0, 30.0)),
            ("e00", lambda rng: crowded_frame(rng, "similar"), (290.0, 310.0)),
            ("e01", lambda rng: crowded_frame(rng, "different"), (290.0, 310.0)),
        )
        for name, make, agl_range in plan:
            rng = np.random.default_rng([seed, int(name[1:]), ord(name[0])])
            temps, info = make(rng)
            op, truth = _write_frame(rundir, rng, name, temps, info, agl_range, "f32")
            ops.append(op)
            truths.append(truth)
    manifest = {
        "kind": "label",
        "geoid": "geoid.json",
        "dem": "dem",
        "dem_probes": [[a_lat + 0.5, a_lon + 0.5] for a_lat, a_lon in DEM_ANCHORS],
        "ops": ops,
    }
    return manifest, truths


# --- image pairs ----------------------------------------------------------------------


def texture(rng: np.random.Generator) -> np.ndarray:
    """Block noise at two scales (16 px and 4 px): corners at several scales."""
    coarse = rng.integers(0, 256, size=(HEIGHT // 16 + 1, WIDTH // 16 + 1))
    coarse = np.repeat(np.repeat(coarse, 16, axis=0), 16, axis=1)[:HEIGHT, :WIDTH]
    fine = rng.integers(-40, 41, size=(HEIGHT // 4 + 1, WIDTH // 4 + 1))
    fine = np.repeat(np.repeat(fine, 4, axis=0), 4, axis=1)[:HEIGHT, :WIDTH]
    return np.clip(coarse + fine, 0, 255).astype(np.uint8)


CENTRE = ((WIDTH - 1) / 2.0, (HEIGHT - 1) / 2.0)


def rigid_warp(img: np.ndarray, angle_deg: float, shift: tuple[float, float]) -> np.ndarray:
    """Rotate about the image centre, then shift; nearest-neighbour, black outside."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    u = xs - shift[0] - CENTRE[0]
    v = ys - shift[1] - CENTRE[1]
    sx = np.round(c * u + s * v + CENTRE[0]).astype(np.int64)
    sy = np.round(-s * u + c * v + CENTRE[1]).astype(np.int64)
    ok = (sx >= 0) & (sx < WIDTH) & (sy >= 0) & (sy < HEIGHT)
    out = np.zeros_like(img)
    out[ok] = img[sy[ok], sx[ok]]
    return out


def rigid_map(pts: np.ndarray, angle_deg: float, shift: tuple[float, float]) -> np.ndarray:
    """Forward map of ``rigid_warp``: where a source point lands in the copy."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    x, y = pts[:, 0] - CENTRE[0], pts[:, 1] - CENTRE[1]
    return np.stack([c * x - s * y + CENTRE[0] + shift[0], s * x + c * y + CENTRE[1] + shift[1]], axis=1)


# match_dup round: (rotation in degrees, shift in px) of each pair's copy. The
# schedule is fixed so that the funnel (about 840 survivors a pair) does not
# move with the seed; the seed draws the textures.
DUP_SCHEDULE = ((-13.0, (15.0, -10.0)), (-8.0, (-12.0, 6.0)), (-4.0, (8.0, 14.0)),
                (4.0, (-16.0, -4.0)), (8.0, (10.0, 12.0)), (13.0, (-6.0, -15.0)),
                (-11.0, (-9.0, 13.0)), (-6.0, (14.0, 3.0)), (-2.0, (-5.0, -16.0)),
                (2.0, (12.0, -8.0)), (6.0, (-14.0, 10.0)), (11.0, (4.0, 15.0)))


def _match_workload(workload: str, seed: int, rundir: Path):
    ops, truths, arrays = [], [], {}
    for k, (angle, shift) in enumerate(DUP_SCHEDULE):
        rng = np.random.default_rng([seed, k, 7])
        a = texture(rng)
        name = f"p{k:02d}"
        if workload == "match_dup":
            b = rigid_warp(a, angle, shift)
            truths.append({"id": name, "duplicate": True, "angle": angle, "shift": shift})
        else:
            b = texture(rng)
            truths.append({"id": name, "duplicate": False})
        arrays[f"{name}_a"], arrays[f"{name}_b"] = a, b
        ops.append({"id": name, "a": f"{name}_a", "b": f"{name}_b"})
    np.savez(rundir / "pairs.npz", **arrays)
    return {"kind": "match", "pairs": "pairs.npz", "ops": ops}, truths


def build(workload: str, seed: int, rundir: Path):
    """Write the inputs of ``workload`` for ``seed`` under ``rundir``."""
    rundir.mkdir(parents=True)
    if workload.startswith("label_"):
        return _label_workload(workload, seed, rundir)
    return _match_workload(workload, seed, rundir)
