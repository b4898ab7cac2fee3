"""Checks of the program's outputs, computed apart from the program.

Each check recomputes the expected output from the inputs the benchmark
built, with plain numpy and scipy, never with a copy of an earlier output:

- summary statistics, ``p200``/``p400`` and the RAG text from the samples written;
- components and kept hotspots from an independent ``scipy.ndimage.label``
  (3 x 3 structure) and the radius and pixel filters at an independently
  computed GSD;
- clusters from a ``cKDTree.query_pairs`` single-linkage graph, the main
  cluster and the isolation verdict from pairwise distances;
- DS1, DS3, the hottest region, AGL and FP2 from the planted layout, peaks,
  and planar geoid and terrain;
- every answer lies in ``questions.QUESTIONS``, and ``from_json(to_json(x)) == x``;
- for duplicate pairs, ``near_duplicate`` and a homography within a few px of
  the planted rigid transform; for distinct pairs, no near-duplicate.

``check(workload, truths, outputs)`` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import ndimage
from scipy.sparse import csgraph, coo_matrix
from scipy.spatial import cKDTree

import inputs

T_HOT, R_MIN_M, N_MIN_PX = 200.0, 0.75, 5
D_MERGE_M, ISOLATION_M = 10.0, 30.0
KNOWN_FAULT = "struct.error"  # parse_exif_gps on a truncated JPEG
HOMOGRAPHY_TOL_PX = 3.0


def _close(a, b, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _region(x: int, y: int) -> str:
    """Middle third in both axes is Center; otherwise the quadrant, midlines right/bottom."""
    w, h = inputs.WIDTH, inputs.HEIGHT
    if 3 * x >= w and 3 * x < 2 * w and 3 * y >= h and 3 * y < 2 * h:
        return "Center"
    return ("Top" if 2 * y < h else "Bottom") + "-" + ("left" if 2 * x < w else "right")


def _bin(value: float, edges: tuple[float, ...], labels: tuple[str, ...]) -> str:
    for edge, label in zip(edges, labels):
        if value < edge:
            return label
    return labels[-1]


def _components(temps: np.ndarray, valid: np.ndarray):
    """8-connected components of the hot mask, ids in first-encounter row-major order."""
    labels, n = ndimage.label(valid & (temps >= T_HOT), structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return []
    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    order = np.argsort(lab, kind="stable")  # row-major within each label
    idx, lab = idx[order], lab[order]
    starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
    rank = np.argsort(np.argsort(idx[starts]))  # component id by first pixel
    counts = np.diff(np.r_[starts, len(idx)])
    ys, xs = idx // temps.shape[1], idx % temps.shape[1]
    cx = np.add.reduceat(xs.astype(np.float64), starts) / counts
    cy = np.add.reduceat(ys.astype(np.float64), starts) / counts
    t = temps.ravel()[idx]
    peak = np.maximum.reduceat(t, starts)
    is_peak = t == np.repeat(peak, counts)
    first = np.minimum.reduceat(np.where(is_peak, np.arange(len(idx)), len(idx)), starts)
    comps = [None] * n
    for k in range(n):
        comps[rank[k]] = (int(counts[k]), float(cx[k]), float(cy[k]), float(peak[k]),
                          (int(xs[first[k]]), int(ys[first[k]])))
    return comps


def _check_hotspots(fid, spots, temps, valid, g, problems):
    comps = _components(temps, valid)
    want = []
    for cid, (n, cx, cy, peak, peak_px) in enumerate(comps):
        area = n * g * g
        radius = math.sqrt(area / math.pi)
        if n >= N_MIN_PX and radius >= R_MIN_M:
            want.append((cid, n, cx, cy, area, radius, peak, peak_px))
    if [h["id"] for h in spots] != [w[0] for w in want]:
        problems.append(f"{fid}: kept hotspot ids {[h['id'] for h in spots][:8]}... "
                        f"!= independent {[w[0] for w in want][:8]}... ({len(comps)} components)")
        return
    for h, (cid, n, cx, cy, area, radius, peak, peak_px) in zip(spots, want):
        ok = (h["pixel_count"] == n and _close(h["centroid_px"][0], cx) and _close(h["centroid_px"][1], cy)
              and _close(h["centroid_m"][0], cx * g) and _close(h["centroid_m"][1], cy * g)
              and _close(h["area_m2"], area) and _close(h["radius_m"], radius)
              and h["peak_temp_c"] == peak and tuple(h["peak_px"]) == peak_px)
        if not ok:
            problems.append(f"{fid}: hotspot {cid} {h} != independent {(n, cx, cy, area, radius, peak, peak_px)}")
            return


def _check_spatial(fid, a, g, problems):
    spots = a["hotspots"]
    n = len(spots)
    pts = np.array([h["centroid_px"] for h in spots], dtype=np.float64).reshape(-1, 2) * g
    pairs = cKDTree(pts).query_pairs(D_MERGE_M, output_type="ndarray") if n else np.empty((0, 2), int)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, comp = csgraph.connected_components(graph, directed=False)
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comp):
        groups.setdefault(int(c), []).append(i)
    clusters = sorted(groups.values(), key=min)
    got = a["clusters"]["clusters"]
    if got != clusters:
        problems.append(f"{fid}: clusters differ from single linkage ({len(got)} vs {len(clusters)})")
        return
    if not clusters:
        want_main, isolated = None, "No fire"
    else:
        areas = [sum(spots[i]["area_m2"] for i in c) for c in clusters]
        want_main = int(np.argmax(areas))
        main_pts = pts[clusters[want_main]]
        isolated = "No"
        for k, c in enumerate(clusters):
            if k != want_main:
                d = np.sqrt(((pts[c][:, None, :] - main_pts[None, :, :]) ** 2).sum(axis=2)).min()
                if d >= ISOLATION_M:
                    isolated = "Yes"
                    break
    if a["clusters"]["main_index"] != want_main or a["isolated"] != isolated:
        problems.append(f"{fid}: main cluster/isolation {a['clusters']['main_index']}/{a['isolated']} "
                        f"!= {want_main}/{isolated}")


_DS1 = {"line": "Linear", "compact": "Concentrated", "spread": "Scattered"}
_DS3 = {"similar": ("Similar intensity", "Similar intensity"),
        "different": ("Clearly different", "Different intensity")}


def _check_frame(truth: dict, out: list[str], problems: list[str]) -> None:
    from firescene.labeler import AnswerSheet, FrameAnalysis
    from firescene.questions import QUESTIONS

    fid = truth["id"]
    a_json, s_json, rag = out
    analysis, sheet = FrameAnalysis.from_json(a_json), AnswerSheet.from_json(s_json)
    if analysis.to_json() != a_json or FrameAnalysis.from_json(analysis.to_json()) != analysis:
        problems.append(f"{fid}: FrameAnalysis JSON round trip")
    if sheet.to_json() != s_json or AnswerSheet.from_json(sheet.to_json()) != sheet:
        problems.append(f"{fid}: AnswerSheet JSON round trip")
    a, s = json.loads(a_json), json.loads(s_json)["answers"]

    temps = truth["temps"]
    valid = np.isfinite(temps) & (temps >= -100.0) & (temps <= 2000.0)
    v = temps[valid]
    stats = {"min_c": float(v.min()), "max_c": float(v.max()), "mean_c": float(v.mean()),
             "std_c": float(v.std()), "pct_above_200": 100.0 * np.count_nonzero(v >= 200.0) / v.size,
             "pct_above_400": 100.0 * np.count_nonzero(v >= 400.0) / v.size}
    for k, want in stats.items():
        if not _close(a["summary"][k], want):
            problems.append(f"{fid}: summary {k} {a['summary'][k]} != {want}")
    if not (_close(a["p200"], stats["pct_above_200"]) and _close(a["p400"], stats["pct_above_400"])):
        problems.append(f"{fid}: p200/p400 {a['p200']}/{a['p400']}")
    want_rag = (
        "Temperature Summary (°C):\n"
        f"- Minimum Temp: {stats['min_c']:.1f}\n- Maximum Temp: {stats['max_c']:.1f}\n"
        f"- Mean Temp: {stats['mean_c']:.1f}\n- Temperature Std Dev: {stats['std_c']:.1f}\n"
        f"- Percentage of pixels above 200°C: {stats['pct_above_200']:.1f}\n"
        f"- Percentage of pixels above 400°C: {stats['pct_above_400']:.1f}\n"
    )
    if rag != want_rag:
        problems.append(f"{fid}: RAG text differs")

    for qid, ans in s.items():
        if ans["option"] is not None and ans["option"] not in QUESTIONS[qid][1]:
            problems.append(f"{fid}: {qid} answer {ans['option']!r} not in QUESTIONS")
    if set(s) != set(QUESTIONS):
        problems.append(f"{fid}: sheet questions differ from QUESTIONS")

    want = {
        "DS7": "None" if stats["pct_above_400"] == 0 else _bin(stats["pct_above_400"], (2, 4, 6), ("<2%", "2–4%", "4–6%", ">6%")),
        "DS8": "None" if stats["pct_above_200"] == 0 else _bin(stats["pct_above_200"], (5, 10, 15), ("<5%", "5–10%", "10–15%", ">15%")),
    }
    agl = truth["agl"]
    if agl is None:
        if a["agl_m"] is not None or a["hotspots"] is not None:
            problems.append(f"{fid}: labeled with AGL {a['agl_m']} but the frame has no usable GPS")
        want.update({q: None for q in ("PD1", "PD7", "DS1", "DS3", "LD1", "CMR4", "FP2")})
    else:
        g = 2.0 * agl * math.tan(math.radians(inputs.FOV_DIAG_DEG) / 2.0) / inputs.WIDTH
        if not (_close(a["agl_m"], agl, abs_=1e-6) and _close(a["gsd_m"], g, rel=1e-8)):
            problems.append(f"{fid}: AGL/GSD {a['agl_m']}/{a['gsd_m']} != {agl}/{g}")
            return
        _check_hotspots(fid, a["hotspots"], temps, valid, g, problems)
        _check_spatial(fid, a, g, problems)
        n_kept = len(a["hotspots"])
        if n_kept != truth["n_planted"]:
            problems.append(f"{fid}: {n_kept} hotspots kept, {truth['n_planted']} planted")
        if truth["n_planted"] == 0:
            ds1 = ds3 = "No active hotspots"
            pd1, region, cmr4 = "No", "No hotspots", "No hotspots"
        else:
            ds1 = _DS1[truth["layout"]]
            hicl, ds3 = _DS3[truth["peaks"]]
            if a["hicl"] != hicl:
                problems.append(f"{fid}: HICL {a['hicl']} != planted {hicl}")
            pd1, region = "Yes", _region(*truth["hottest_px"])
            peak = float(temps[truth["hottest_px"][1], truth["hottest_px"][0]])
            cmr4 = _bin(peak, (200, 300, 400, 500), ("100–200", "200–300", "300–400", "400–500", ">500"))
        if a["sdl"] != ds1:
            problems.append(f"{fid}: DS1 {a['sdl']} != planted {ds1}")
        fp2 = _bin(agl, (50, 100, 150), ("0–50 m", "50–100 m", "100–150 m", ">150 m"))
        want.update({"PD1": pd1, "PD7": a["isolated"], "DS1": ds1, "DS3": ds3, "LD1": region,
                     "CMR4": cmr4, "FP2": fp2})
    for qid, option in want.items():
        if s[qid]["option"] != option or s[qid]["provenance"] != "deterministic":
            problems.append(f"{fid}: {qid} {s[qid]} != {option!r}")
    for qid in set(QUESTIONS) - set(want):
        if s[qid]["option"] is not None:
            problems.append(f"{fid}: external slot {qid} filled")


def _check_pair(truth: dict, out: list[str], problems: list[str]) -> None:
    r = json.loads(out[0])
    pid = truth["id"]
    if r["near_duplicate"] != truth["duplicate"]:
        problems.append(f"{pid}: near_duplicate {r['near_duplicate']} != {truth['duplicate']} ({r})")
        return
    if not truth["duplicate"]:
        return
    h = np.array(r["homography"], dtype=np.float64).reshape(3, 3)
    gx, gy = np.meshgrid(np.linspace(160, 480, 5), np.linspace(128, 384, 5))
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    proj = np.hstack([grid, np.ones((len(grid), 1))]) @ h.T
    proj = proj[:, :2] / proj[:, 2:]
    err = np.abs(proj - inputs.rigid_map(grid, truth["angle"], tuple(truth["shift"]))).max()
    if not err <= HOMOGRAPHY_TOL_PX:
        problems.append(f"{pid}: homography off the planted transform by {err:.2f} px")


def check(workload: str, truths: list[dict], outputs: dict[str, list[str]]) -> list[str]:
    """Problems found in the first round's outputs; failures of the known fault are not problems."""
    problems: list[str] = []
    for truth in truths:
        out = outputs[truth["id"]]
        if out[0].startswith("FAILED "):
            if not (truth.get("truncated") and out[0].startswith(f"FAILED {KNOWN_FAULT}:")):
                problems.append(f"{truth['id']}: unexpected failure {out[0]}")
            continue
        if workload.startswith("label_"):
            _check_frame(truth, out, problems)
        else:
            _check_pair(truth, out, problems)
    return problems
