"""firescene benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed under ``bench/out/``, times the
program's set-up in fresh processes, runs whole rounds of operations in a
worker process for about S seconds, checks every output against independent
computations, and prints the metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The full report goes to ``bench/out/<workload>-seed<N>-trace<T>.json``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS/OpenMP thread, here and in every child
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
WORKLOADS = ("label_corpus", "label_stress", "match_dup", "match_distinct")
SETUP_PROBES = 7
DEADLINE_S = 170.0
REFERENCE = BENCH / "reference_digests.json"
# The worker's calibration (worker.Calibration, all three parts) takes about
# this long on the reference machine at its quiet speed; every time is
# scaled to that speed.
CALIBRATION_REF_S = 0.007


def scaled_latencies(res: dict) -> dict[str, list[float]]:
    """Each operation's latencies at the reference speed, by operation."""
    return {op: [lat * CALIBRATION_REF_S / sum(cal) for lat, *cal in v] for op, v in res["latencies_s"].items()}


def end_to_end(res: dict, setup: list[list[float]]) -> dict:
    """Times at the machine's reference speed: each scaled by the calibration around it.

    The machine's speed swings by up to 1.9x in spells of 5-20 s and drifts
    over minutes; the benchmark's own fixed calibration work slows down with
    it much as the program does. Each operation's latency is scaled by
    ``CALIBRATION_REF_S`` over the mean time of the calibrations just before
    and just after it, and each set-up by the median of three calibrations
    right after it, so the machine's speed largely cancels and the
    program's does not (see README).
    The median is taken over a round's operations, of each one's median
    over the run's rounds, so that it does not sit on the edge between two
    operations of different cost.
    """
    by_op = scaled_latencies(res)
    scaled = [t for v in by_op.values() for t in v]
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "op/s"),
        "op_ms_p50": (1000.0 * statistics.median(statistics.median(v) for v in by_op.values()), "ms"),
        "op_ms_p90": (1000.0 * float(np.percentile(scaled, 90)), "ms"),
        "setup_s": (statistics.median(s * CALIBRATION_REF_S / sum(cal) for s, *cal in setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


TIME_METRICS = (
    "tiff.load_ms", "geodesy.meta_ms", "raster.summarize_ms", "raster.coverage_ms",
    "hotspots.components_ms", "hotspots.extract_ms", "hotspots.hottest_ms", "spatial.linkage_ms",
    "spatial.distribution_ms", "spatial.isolation_ms", "spatial.intensity_ms", "labeler.analyze_ms",
    "labeler.sheet_ms", "labeler.json_ms", "labeler.rag_ms", "detect.ms", "describe.ms",
    "matching.hamming_ms", "matching.match_ms", "ransac.ms", "pipeline.match_images_ms",
)


def per_layer(spans: list[dict]) -> dict:
    """Per-operation medians of module times and counts; ratios of run totals.

    Medians are over the operations in which the module ran; a module that
    never runs in this workload reads 0.
    """
    def med(name):
        values = [s[name] for s in spans if name in s]
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        d = sum(s.get(den, 0.0) for s in spans)
        return sum(s.get(num, 0.0) for s in spans) / d if d else 0.0

    m = {name: (1000.0 * med(name), "ms") for name in TIME_METRICS}
    m["hotspots.components"] = (med("n.components"), "count")
    m["hotspots.kept_ratio"] = (ratio("n.kept", "n.components"), "ratio")
    m["spatial.hotspots"] = (med("n.hotspots"), "count")
    m["detect.keypoints"] = (med("n.keypoints"), "count")
    m["matching.survivor_ratio"] = (ratio("n.survivors", "n.putative"), "ratio")
    m["ransac.inlier_ratio"] = (ratio("n.inliers", "n.survivors"), "ratio")
    return m


def blas_config() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], capture_output=True,
                          text=True, timeout=timeout, check=True)


def _terminate(signum, frame):
    # An exception, so that subprocess.run kills and waits for the worker.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="firescene benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)

    if not (CHECKOUT / "src" / "firescene" / "__init__.py").is_file():
        print(f"firescene sources not found under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(CHECKOUT / "src"))
    import checks
    import inputs

    out_dir = BENCH / "out"
    rundir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    try:
        t0 = time.perf_counter()
        manifest, truths = inputs.build(args.workload, args.seed, rundir)
        (rundir / "manifest.json").write_text(json.dumps(manifest))
        build_s = time.perf_counter() - t0
        setup = [json.loads(_child(["--probe", str(rundir)], deadline).stdout) for _ in range(SETUP_PROBES)]
        _child([str(rundir), "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        res = json.loads((rundir / "results.json").read_text())
        problems = checks.check(args.workload, truths, res["outputs"])
    except subprocess.CalledProcessError as exc:
        print(f"worker failed with code {exc.returncode}:\n{exc.stderr}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if Path(res["program"]).parent.parent != CHECKOUT / "src":
        problems.append(f"measured {res['program']}, not this checkout's package")
    if not res["rounds_identical"]:
        problems.append("rounds of identical inputs gave different outputs")
    problems += [f"{op}: decomposed calls differ from the whole call" for op in res["equivalence_mismatches"]]
    metrics = per_layer(res["spans"]) if args.trace else end_to_end(res, setup)

    reference = json.loads(REFERENCE.read_text())
    ref = reference["digests"].get(args.workload) if args.seed == reference["seed"] else None
    digest_status = "no reference for this seed" if ref is None else ("matches" if ref == res["digest"] else "MISMATCH")
    failures = sorted({o[0].split(":")[0] for o in res["outputs"].values() if o[0].startswith("FAILED ")})
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": not problems, "problems": problems, "attempted": res["attempted"],
        "failed": res["failed"], "failure_kinds": failures, "rounds": res["rounds"],
        "ops_per_round": len(truths),
        "latency_samples": sum(len(v) for v in res["latencies_s"].values()),
        "latency_ms_p50_unscaled": 1000.0 * statistics.median(
            lat for v in res["latencies_s"].values() for lat, *_ in v),
        "calibration_ms_p50": 1000.0 * statistics.median(sum(c) for c in res["calibrations_s"]),
        "op_ms_p50_by_op": {op: 1000.0 * statistics.median(v) for op, v in scaled_latencies(res).items()},
        "loop_s": res["loop_s"], "input_build_s": build_s,
        "setup_samples_s": [s for s, *_ in setup], "setup_calibrations_s": [c for _, *c in setup],
        "latencies_s": res["latencies_s"],
        "worker_setup_s": res["setup_s"], "digest": res["digest"], "reference_digest": digest_status,
        "environment": blas_config(), "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds x {len(truths)} ops, "
          f"{res['attempted']} attempted, {res['failed']} failed {failures}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(f"  unscaled latency p50 {report['latency_ms_p50_unscaled']:.2f} ms, "
          f"calibration p50 {report['calibration_ms_p50']:.2f} ms (reference {1000 * CALIBRATION_REF_S:.1f} ms)")
    print(f"  outputs sha256 {res['digest']} (reference: {digest_status})")
    print(f"  {report['environment']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  report: {report_path.relative_to(CHECKOUT)}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": report["metrics"]}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
