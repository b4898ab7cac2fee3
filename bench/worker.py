"""Benchmark worker: runs one workload's operations against the firescene package.

Run by ``run.py`` in a process of its own, so that its peak resident memory is
the program's plus a small harness. It imports nothing but the standard
library before the program, so the set-up it times starts cold.

    worker.py --probe RUNDIR                  time the set-up alone, then the calibration
    worker.py RUNDIR --seconds S --trace 0|1  run whole rounds for about S seconds

The worker calls the package through its public functions only. With
``--trace 1`` it makes the same calls ``analyze_frame`` and ``match_images``
make, in the same order, timing each from outside, and afterwards checks that
the decomposed calls reproduce the whole calls' outputs.

Between operations, and after each probe's set-up, the worker times a fixed
piece of the benchmark's own work (``Calibration``): its time measures how
fast the machine runs at that moment, which ``run.py`` uses to put every
latency on the machine's reference speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(manifest: dict, rundir: Path) -> SimpleNamespace:
    """The program's set-up before its first operation: imports, geoid grid, DEM tiles."""
    sys.path.insert(0, str(SRC))
    if manifest["kind"] == "match":
        import firescene.features as features

        return SimpleNamespace(features=features)
    import firescene.geodesy as geodesy
    import firescene.hotspots as hotspots
    import firescene.labeler as labeler
    import firescene.raster as raster
    import firescene.spatial as spatial
    import firescene.tiff as tiff

    geoid = geodesy.GeoidGrid.from_json(rundir / manifest["geoid"])
    dem = geodesy.DemTileSet(rundir / manifest["dem"])
    for lat, lon in manifest["dem_probes"]:  # DemTileSet reads each tile on first lookup
        geodesy.dem_elevation(dem, lat, lon)
    return SimpleNamespace(geodesy=geodesy, hotspots=hotspots, labeler=labeler, raster=raster,
                           spatial=spatial, tiff=tiff, geoid=geoid, dem=dem)


class Calibration:
    """Times fixed pieces of the benchmark's own work: a dict, small numpy calls, a mask.

    20 000 tuple keys go into a dict (object allocation, hashing and dict
    probes); 300 rounds of numpy calls on 8x2 arrays (the per-call overhead
    of short vectorised steps); and a threshold, ``nonzero`` and ``bincount``
    over a 256x640 array (a pass over a frame). The program's code slows down
    with the machine much as these do. It touches nothing of the program and
    runs with the garbage collector off, so neither a change to the program
    nor the objects it keeps alive can change its time; only the machine's
    speed does.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np, self.frame, self.small = np, rng.random((256, 640)), rng.random((8, 2))

    def __call__(self) -> tuple[float, float, float]:
        np, frame, small = self.np, self.frame, self.small
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            d = {}
            for i in range(20000):
                d[(i % 640, i // 640)] = i
            sum(d.values())
            t1 = time.perf_counter()
            for _ in range(300):
                (small @ small.T).argmax()
                np.linalg.norm(small - small[0], axis=1)
            t2 = time.perf_counter()
            ys, _ = np.nonzero(frame > 0.7)
            np.bincount(ys, minlength=frame.shape[0])
            t3 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return t1 - t0, t2 - t1, t3 - t2


class Spans:
    """Per-operation wall times (seconds) and counts, keyed by layer name."""

    def __init__(self) -> None:
        self.ops: list[dict[str, float]] = []
        self.cur: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.cur[name] = self.cur.get(name, 0.0) + time.perf_counter() - t0

    def count(self, name: str, value: float) -> None:
        self.cur[name] = self.cur.get(name, 0.0) + value

    def end_op(self, keep: bool) -> None:
        if keep:
            self.ops.append(self.cur)
        self.cur = {}


# --- label operations ----------------------------------------------------------------------


def _metadata(p: SimpleNamespace, jpeg: Path):
    """EXIF GPS and AGL; a frame without usable GPS is labeled without AGL."""
    try:
        meta = p.geodesy.parse_exif_gps(jpeg)
    except p.geodesy.ExifError:
        return None, None
    return meta, p.geodesy.agl(meta, p.geoid, p.dem)


def label_op(p: SimpleNamespace, rundir: Path, op: dict) -> list[str]:
    raster = p.tiff.load_thermal_tiff(rundir / op["tiff"], scale=op["scale"], offset=op["offset"])
    meta, agl_m = _metadata(p, rundir / op["jpeg"])
    analysis = p.labeler.analyze_frame(raster, meta, agl_m, frame_id=op["id"])
    sheet = p.labeler.answer_sheet(analysis)
    return [analysis.to_json(), sheet.to_json(), p.labeler.rag_summary(raster).as_text()]


def _traced_analyze(p: SimpleNamespace, raster, meta, agl_m, frame_id: str, s: Spans):
    """``labeler.analyze_frame`` as its sequence of public calls, each timed."""
    hs, sp, lab = p.hotspots, p.spatial, p.labeler
    params = hs.HotspotParams()
    if meta is not None and meta.fov_diag_deg != params.fov_diag_deg:
        params = hs.HotspotParams(temp_threshold_c=params.temp_threshold_c, r_min_m=params.r_min_m,
                                  n_min_px=params.n_min_px, fov_diag_deg=meta.fov_diag_deg)
    sparams = sp.SpatialParams()
    with s.span("raster.summarize_ms"):
        summ = p.raster.summarize(raster)
    with s.span("raster.coverage_ms"):
        p200 = p.raster.coverage_fraction(raster, 200.0)
        p400 = p.raster.coverage_fraction(raster, 400.0)
    if agl_m is None or agl_m <= 0:
        reason = (
            "AGL unavailable: ground-projected fields disabled"
            if agl_m is None
            else f"AGL {agl_m} not positive: ground-projected fields disabled"
        )
        return lab.FrameAnalysis(frame_id=frame_id, summary=summ, p200=p200, p400=p400, agl_m=agl_m,
                                 gsd_m=None, hotspots=None, clusters=None, sdl=None, hicl=None,
                                 isolated=None, hottest_region=None, errors={"hotspots": reason}), params
    g = hs.gsd(agl_m, params.fov_diag_deg, raster.width)
    with s.span("hotspots.extract_ms"):
        spots = hs.extract_hotspots(raster, agl_m, params)
    with s.span("spatial.linkage_ms"):
        clusters = sp.single_linkage_clusters(spots, g, sparams)
    with s.span("spatial.distribution_ms"):
        sdl = sp.classify_distribution(spots, g, sparams)
    with s.span("spatial.intensity_ms"):
        hicl = sp.intensity_consistency(spots, sparams)
    with s.span("spatial.isolation_ms"):
        isolated = sp.isolated_heat_sources(clusters, spots, g, sparams)
    with s.span("hotspots.hottest_ms"):
        region = hs.hottest_location(raster, spots, params)
    s.count("n.hotspots", len(spots))
    return lab.FrameAnalysis(frame_id=frame_id, summary=summ, p200=p200, p400=p400, agl_m=agl_m,
                             gsd_m=g, hotspots=spots, clusters=clusters, sdl=sdl, hicl=hicl,
                             isolated=isolated, hottest_region=region), params


def traced_label_op(p: SimpleNamespace, rundir: Path, op: dict, s: Spans) -> list[str]:
    with s.span("tiff.load_ms"):
        raster = p.tiff.load_thermal_tiff(rundir / op["tiff"], scale=op["scale"], offset=op["offset"])
    with s.span("geodesy.meta_ms"):
        meta, agl_m = _metadata(p, rundir / op["jpeg"])
    with s.span("labeler.analyze_ms"):
        analysis, params = _traced_analyze(p, raster, meta, agl_m, op["id"], s)
    if analysis.hotspots is not None:
        # Probe: the components pass extract_hotspots and hottest_location each make.
        with s.span("hotspots.components_ms"):
            n = len(p.hotspots.connected_components(p.hotspots.hot_mask(raster, params.temp_threshold_c)))
        s.count("n.components", n)
        s.count("n.kept", len(analysis.hotspots))
    with s.span("labeler.sheet_ms"):
        sheet = p.labeler.answer_sheet(analysis)
    with s.span("labeler.json_ms"):
        out = [analysis.to_json(), sheet.to_json()]
    with s.span("labeler.rag_ms"):
        out.append(p.labeler.rag_summary(raster).as_text())
    return out


# --- match operations -------------------------------------------------------------------------


def match_op(p: SimpleNamespace, pair: tuple) -> list[str]:
    return [json.dumps(p.features.match_images(*pair).as_dict(), sort_keys=True)]


def _traced_match(f, a, b, s: Spans):
    """``pipeline.match_images`` as its sequence of public calls, each timed."""
    import numpy as np

    config = f.MatchConfig()
    empty = f.MatchResult(putative=0, survivors=0, inliers=0, homography=None, near_duplicate=False)
    with s.span("detect.ms"):
        kps_a = f.detect(a, config.max_features, config.fast_threshold)
        kps_b = f.detect(b, config.max_features, config.fast_threshold)
    s.count("n.keypoints", len(kps_a) + len(kps_b))
    if not kps_a or not kps_b:
        return empty
    with s.span("describe.ms"):
        desc_a, kept_a = f.describe(a, kps_a)
        desc_b, kept_b = f.describe(b, kps_b)
    if len(kept_a) == 0 or len(kept_b) == 0:
        return empty
    with s.span("matching.match_ms"):
        pairs, _ = f.match(desc_a, desc_b, config.ratio)
    # Probe: the Hamming matrix match() builds internally.
    with s.span("matching.hamming_ms"):
        f.hamming_matrix(desc_a, desc_b)
    putative, survivors = len(desc_a), len(pairs)
    s.count("n.putative", putative)
    s.count("n.survivors", survivors)
    if survivors < 4:
        return f.MatchResult(putative=putative, survivors=survivors, inliers=0, homography=None,
                             near_duplicate=False)
    src = np.array([(kept_a[i].x, kept_a[i].y) for i in pairs[:, 0]])
    dst = np.array([(kept_b[j].x, kept_b[j].y) for j in pairs[:, 1]])
    try:
        with s.span("ransac.ms"):
            result = f.ransac_homography(src, dst, reproj_threshold=config.reproj_threshold_px,
                                         iterations=config.ransac_iterations, seed=config.seed)
    except f.RansacError:
        return f.MatchResult(putative=putative, survivors=survivors, inliers=0, homography=None,
                             near_duplicate=False)
    s.count("n.inliers", result.inlier_count)
    hom = None
    if result.homography is not None and result.inlier_count >= 4:
        hom = tuple(float(v) for v in result.homography.reshape(-1))
    return f.MatchResult(putative=putative, survivors=survivors, inliers=result.inlier_count,
                         homography=hom, near_duplicate=result.inlier_count >= config.min_inliers)


def traced_match_op(p: SimpleNamespace, pair: tuple, s: Spans) -> list[str]:
    with s.span("pipeline.match_images_ms"):
        result = _traced_match(p.features, pair[0], pair[1], s)
    s.cur["pipeline.match_images_ms"] -= s.cur.get("matching.hamming_ms", 0.0)
    return [json.dumps(result.as_dict(), sort_keys=True)]


# Spans of calls the whole operation does not make on its own: their time is
# left out of the traced run's latency.
PROBES = ("hotspots.components_ms", "matching.hamming_ms")


def _failure(exc: Exception) -> str:
    return f"FAILED {type(exc).__module__}.{type(exc).__name__}: {exc}"


def peak_rss_mb() -> float:
    """This process's peak resident memory since exec.

    ``ru_maxrss`` would also count the parent's pages shared before exec, so
    the kernel's per-address-space high-water mark is read instead.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(rundir: Path, seconds: float, trace: bool) -> dict:
    manifest = json.loads((rundir / "manifest.json").read_text())
    kind = manifest["kind"]
    t0 = time.perf_counter()
    p = setup(manifest, rundir)
    setup_s = time.perf_counter() - t0

    import numpy as np

    inputs = {}
    if kind == "match":
        arrays = np.load(rundir / manifest["pairs"])
        for op in manifest["ops"]:
            inputs[op["id"]] = (p.features.GrayImage.from_array(arrays[op["a"]]),
                                p.features.GrayImage.from_array(arrays[op["b"]]))

    if kind == "match":
        def whole(op):
            return match_op(p, inputs[op["id"]])

        def traced(op, s):
            return traced_match_op(p, inputs[op["id"]], s)
    else:
        def whole(op):
            return label_op(p, rundir, op)

        def traced(op, s):
            return traced_label_op(p, rundir, op, s)

    calibrate = Calibration()
    calibrate()  # warm-up
    spans = Spans()
    # Per completed operation: its latency, then the mean time of each part of
    # the calibrations just before and just after it.
    latencies: dict[str, list[tuple[float, ...]]] = {}
    calibrations = [calibrate()]
    outputs, digests = {}, []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        h = hashlib.sha256()
        for op in manifest["ops"]:
            attempted += 1
            t = time.perf_counter()
            latency = None
            try:
                out = traced(op, spans) if trace else whole(op)
            except Exception as exc:  # counted as failed; the checks judge which failures are known
                out = [_failure(exc)]
                failed += 1
                spans.end_op(False)
            else:
                latency = time.perf_counter() - t - sum(spans.cur.get(k, 0.0) for k in PROBES)
                spans.end_op(True)
            calibrations.append(calibrate())
            if latency is not None:
                latencies.setdefault(op["id"], []).append(
                    (latency, *((a + b) / 2 for a, b in zip(calibrations[-2], calibrations[-1]))))
            h.update(op["id"].encode() + b"\0" + "\0".join(out).encode() + b"\0")
            if rounds == 0:
                outputs[op["id"]] = out
        digests.append(h.hexdigest())
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop where another round would end more than half a round past
        # the time, so that a run measures about `seconds` however long its
        # rounds are; a traced run also keeps one round's time for the
        # equivalence check below.
        round_s = elapsed / rounds
        if elapsed + round_s / 2 + (round_s if trace else 0.0) > seconds:
            break
    loop_s = time.perf_counter() - start

    mismatches = []
    if trace:
        for op in manifest["ops"]:
            try:
                out = whole(op)
            except Exception as exc:
                out = [_failure(exc)]
            if out != outputs[op["id"]]:
                mismatches.append(op["id"])

    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "loop_s": loop_s,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digests[0],
        "rounds_identical": len(set(digests)) == 1,
        "outputs": outputs,
        "spans": spans.ops if trace else [],
        "equivalence_mismatches": mismatches,
        "program": str(Path(sys.modules["firescene"].__file__).resolve()),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rundir", type=Path)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.probe:
        manifest = json.loads((args.rundir / "manifest.json").read_text())
        t0 = time.perf_counter()
        setup(manifest, args.rundir)
        setup_s = time.perf_counter() - t0
        calibrate = Calibration()
        calibrate()  # warm-up
        print(json.dumps([setup_s, *sorted((calibrate() for _ in range(3)), key=sum)[1]]))
        return 0
    result = run(args.rundir, args.seconds, bool(args.trace))
    (args.rundir / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
