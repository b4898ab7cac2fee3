from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import table_from_rows
from firescene import geodesy, hotspots, threads
from firescene.hotspots import REGION_NO_HOTSPOTS, HotspotTable, gsd, locate_pixel
from firescene.labeler import (
    _DS3_WORDING,
    AnswerSheet,
    FrameAnalysis,
    analyze_frame,
    answer_sheet,
    bin_p200,
    bin_p400,
    bin_peak_temp,
    rag_summary,
)
from firescene.questions import (
    BIN_EDGES,
    DETERMINISTIC_IDS,
    QUESTIONS,
    bin_option,
    choices,
    validate_option,
)
from firescene.raster import EmptyRasterError, ThermalRaster
from firescene.spatial import IntensityConsistencyLabel, IsolationVerdict, SpatialDistributionLabel
from firescene.tiff import load_thermal_tiff
from test_golden import FRAMES, GOLDEN_FRAMES, frame_digests, typical
from tiffutil import write_tiff


def _raster(arr) -> ThermalRaster:
    return ThermalRaster.from_array(np.asarray(arr, dtype=np.float64))


def _agl_for_gsd(gsd_m: float, width: int, fov_deg: float = 61.0) -> float:
    return gsd_m * width / (2.0 * math.tan(math.radians(fov_deg) / 2.0))


def _disk(arr, cy, cx, radius, temp):
    yy, xx = np.mgrid[0 : arr.shape[0], 0 : arr.shape[1]]
    arr[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] = temp


@pytest.fixture()
def collinear_scene():
    arr = np.full((64, 64), 25.0)
    for cx in (10, 22, 34):
        _disk(arr, 32, cx, 2, 450.0)
    return _raster(arr), _agl_for_gsd(1.0, 64)


class TestAnalyzeFrame:
    def test_cold_frame(self):
        a = analyze_frame(_raster(np.full((32, 32), 20.0)), agl_m=60.0, frame_id="cold")
        assert a.hotspots == table_from_rows(HotspotTable, [])
        assert a.sdl == SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS
        assert a.p200 == 0.0
        assert a.hottest_region == "No hotspots"
        assert a.isolated.value == "No fire"

    def test_collinear_blobs_linear(self, collinear_scene):
        r, agl = collinear_scene
        a = analyze_frame(r, agl_m=agl, frame_id="line")
        assert a.gsd_m == pytest.approx(1.0)
        assert len(a.hotspots) == 3
        assert a.sdl == SpatialDistributionLabel.LINEAR
        assert a.hicl.value == "Similar intensity"
        assert a.isolated.value == "No"
        assert a.hottest_region == "Top-left"

    def test_deterministic(self, collinear_scene):
        r, agl = collinear_scene
        a = analyze_frame(r, agl_m=agl, frame_id="x")
        b = analyze_frame(r, agl_m=agl, frame_id="x")
        assert a.to_json() == b.to_json()

    def test_missing_agl_disables_ground_fields(self):
        a = analyze_frame(_raster(np.full((16, 16), 500.0)), frame_id="noagl")
        assert a.hotspots is None and a.sdl is None
        assert "hotspots" in a.errors
        assert a.p200 == 100.0  # coverage still computed

    @pytest.mark.parametrize("agl", [math.nan, math.inf, -math.inf])
    def test_non_finite_agl_rejected(self, collinear_scene, agl):
        r, _ = collinear_scene
        with pytest.raises(ValueError, match="finite"):
            analyze_frame(r, agl_m=agl)
        with pytest.raises(ValueError, match="finite"):
            gsd(agl, 61.0, r.width)

    def test_json_round_trip(self, collinear_scene):
        r, agl = collinear_scene
        a = analyze_frame(r, agl_m=agl, frame_id="rt")
        assert FrameAnalysis.from_json(a.to_json()).to_json() == a.to_json()
        assert FrameAnalysis.from_json(a.to_json()) == a

    def test_invariant_rejects_bad_percentages(self, collinear_scene):
        r, agl = collinear_scene
        a = analyze_frame(r, agl_m=agl)
        d = a.as_dict()
        d["p400"] = d["p200"] + 1.0
        with pytest.raises(ValueError, match="p400"):
            FrameAnalysis.from_dict(d)

    def test_percentages_must_be_the_summarys(self, collinear_scene):
        # 50/40 beside a summary of 2.44/2.44 used to load.
        r, agl = collinear_scene
        d = analyze_frame(r, agl_m=agl).as_dict() | {"p200": 50.0, "p400": 40.0}
        with pytest.raises(ValueError, match="summary's pct_above_200"):
            FrameAnalysis.from_json(json.dumps(d))

    def test_hottest_region_must_be_an_ld1_option(self, collinear_scene):
        # Used to load, and only answer_sheet raised later.
        r, agl = collinear_scene
        d = analyze_frame(r, agl_m=agl).as_dict() | {"hottest_region": "Somewhere"}
        with pytest.raises(ValueError, match="LD1"):
            FrameAnalysis.from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"min_c": 500.0}, "max_c"),
            ({"max_c": math.nan}, "max_c"),
            ({"std_c": -1.0}, "std_c"),
            ({"std_c": math.nan}, "std_c"),
            ({"pct_above_200": 250.0}, "percentages"),
            ({"pct_above_200": 1.0, "pct_above_400": 2.0}, "percentages"),
            ({"pct_above_400": -1.0}, "percentages"),
            ({"pct_above_400": math.nan}, "percentages"),
        ],
        ids=["min-above-max", "nan-max", "negative-std", "nan-std", "p200-above-100", "p400-above-p200",
             "negative-p400", "nan-p400"],
    )
    def test_summary_must_be_in_range(self, collinear_scene, change, message):
        # A summary with pct_above_200 250 and std_c -1 used to load.
        r, agl = collinear_scene
        d = analyze_frame(r, agl_m=agl).as_dict()
        d["summary"] |= change
        with pytest.raises(ValueError, match=message):
            FrameAnalysis.from_json(json.dumps(d))

    @pytest.mark.parametrize("name", ["gsd_m", "hotspots", "clusters", "sdl", "hicl", "isolated", "hottest_region"])
    def test_gsd_fields_all_set_or_all_none(self, collinear_scene, name):
        # One null among set GSD-dependent fields, or one value among nulls, is rejected.
        r, agl = collinear_scene
        full = analyze_frame(r, agl_m=agl).as_dict()
        bare = analyze_frame(r).as_dict()
        assert bare[name] is None and full[name] is not None
        with pytest.raises(ValueError, match="all set or all None"):
            FrameAnalysis.from_dict(full | {name: None})
        with pytest.raises(ValueError, match="all set or all None"):
            FrameAnalysis.from_dict(bare | {name: full[name]})

    @pytest.mark.parametrize(
        "with_gsd, agl",
        [(True, None), (True, -5.0), (True, 0.0), (True, math.nan), (True, math.inf),
         (False, 40.0), (False, math.nan), (False, -math.inf)],
    )
    def test_gsd_fields_set_exactly_beside_a_positive_agl(self, collinear_scene, with_gsd, agl):
        # analyze_frame never pairs set GSD-dependent fields with a None or non-positive
        # AGL, nor unset ones with a positive AGL, and rejects a non-finite one.
        r, positive = collinear_scene
        doc = json.loads(analyze_frame(r, agl_m=positive if with_gsd else None).to_json())
        with pytest.raises(ValueError, match="AGL"):
            FrameAnalysis.from_json(json.dumps(doc | {"agl_m": agl}))

    @pytest.mark.parametrize("peak", [math.nan, math.inf, -math.inf, 1e300, -273.15])
    def test_hotspot_peaks_are_valid_temperatures(self, collinear_scene, peak):
        # Every peak is a valid pixel. CMR4 would bin a NaN or 1e300 peak as ">500".
        r, agl = collinear_scene
        doc = analyze_frame(r, agl_m=agl).as_dict()
        doc["hotspots"][1]["peak_temp_c"] = peak
        with pytest.raises(ValueError, match="hotspot peaks"):
            FrameAnalysis.from_dict(doc)

    def test_float_fields_hold_python_floats(self, tmp_path):
        """Every float leaf of an analysis built with a geoid/DEM AGL is a ``float``, not a numpy scalar."""
        (tmp_path / "N34W119.hgt").write_bytes(np.full((1201, 1201), 120, dtype=">i2").tobytes())
        geoid = geodesy.GeoidGrid(origin_lat=33.0, origin_lon=-120.0, spacing_deg=1.0, values=np.full((5, 5), -30.0))
        meta = geodesy.FrameMeta(lat=34.5, lon=-118.5, alt_ellipsoidal_m=150.0)
        agl_m = geodesy.agl(meta, geoid, geodesy.DemTileSet(tmp_path))
        analysis = analyze_frame(_raster(typical(0)), meta, agl_m)
        assert agl_m == 60.0 and analysis.hotspots
        leaves = []

        def collect(v):
            if isinstance(v, dict):
                v = list(v.values())
            if isinstance(v, (list, tuple)):
                for x in v:
                    collect(x)
            else:
                leaves.append(v)

        collect(analysis.as_dict())
        floats = [v for v in leaves if isinstance(v, float)]
        assert len(floats) > 10
        assert {type(v) for v in floats} == {float}


class TestTwoCoreAnalysis:
    """``analyze_frame`` summarizes on the helper thread while it extracts on the caller's."""

    def test_all_invalid_raster_raises_empty_raster_error(self):
        r = _raster(np.full((8, 8), np.nan))
        threads.both(int, int)
        before = threading.active_count()
        with pytest.raises(EmptyRasterError):
            analyze_frame(r, agl_m=50.0)
        assert threading.active_count() == before

    def test_extraction_error_propagates_when_the_summary_succeeds(self, monkeypatch, collinear_scene):
        r, agl = collinear_scene

        def fail(*args):
            raise MemoryError("no buffer")

        monkeypatch.setattr(hotspots, "extract_hotspots", fail)
        with pytest.raises(MemoryError, match="no buffer"):
            analyze_frame(r, agl_m=agl)
        # Both failing, the summary's error wins: it is the first call.
        with pytest.raises(EmptyRasterError):
            analyze_frame(_raster(np.full((8, 8), np.nan)), agl_m=agl)

    @pytest.mark.parametrize("on_helper", [True, False], ids=["on-helper", "on-caller"])
    def test_golden_bytes_inside_a_both_call(self, on_helper):
        # Inside another call's ``both`` the helper is busy, so both steps run in turn.
        def digests():
            return {name: frame_digests(name) for name in FRAMES}

        got = threads.both(digests, dict)[0] if on_helper else threads.both(dict, digests)[1]
        assert got == GOLDEN_FRAMES

    def test_golden_bytes_from_concurrent_callers(self):
        # One caller at a time holds the helper; the others run both steps themselves.
        got = [{} for _ in range(3)]

        def run(k):
            for name in FRAMES:
                got[k][name] = frame_digests(name)

        callers = [threading.Thread(target=run, args=(k,)) for k in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [GOLDEN_FRAMES] * len(got)

    def test_golden_frame_shares_the_analysis_summary(self):
        r = ThermalRaster.from_array(typical(0))
        analysis = analyze_frame(r, agl_m=60.0)
        assert analysis.hotspots and rag_summary(r) is analysis.summary


_FAULTS_PER_LABEL = """
import resource
from firescene.labeler import analyze_frame, answer_sheet
from firescene.raster import ThermalRaster
from test_golden import ember_field
temps = ember_field(0, alternating=False)
def label():
    analysis = analyze_frame(ThermalRaster.from_array(temps), agl_m=300.0)
    return len(analysis.hotspots), analysis.to_json(), answer_sheet(analysis).to_json()
n = label()[0]  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    label()
print(n, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def test_crowded_frame_labels_without_faulting_fresh_pages():
    """Labeling a 2000-hotspot frame and writing its JSON faults under 250 pages an
    operation, warm, in a fresh process with glibc's default allocator settings.

    Writing one text per float leaf of the hotspot table, 14,000 of them, made
    about 530 minor faults an operation; once per distinct value, about 2,540,
    it makes under 65.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    tests = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_LABEL], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    hotspots, faults = out.stdout.split()
    assert int(hotspots) == 2000
    assert float(faults) < 250


# Options after the last bin of each binned slot: the null options only.
_BIN_NULL_OPTIONS = {"DS7": ("None",), "DS8": ("None",), "CMR4": ("No hotspots",), "FP2": ()}


class TestBins:
    def test_binned_slots(self):
        assert sorted(BIN_EDGES) == sorted(_BIN_NULL_OPTIONS)
        assert set(BIN_EDGES) <= set(DETERMINISTIC_IDS)

    @pytest.mark.parametrize("qid", sorted(_BIN_NULL_OPTIONS))
    def test_bin_edge_table(self, qid):
        edges, options = BIN_EDGES[qid], choices(qid)
        assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
        for k, edge in enumerate(edges):
            assert bin_option(qid, edge) == options[k + 1]
            assert bin_option(qid, math.nextafter(edge, -math.inf)) == options[k]
        assert options[len(edges) + 1 :] == _BIN_NULL_OPTIONS[qid]

    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, "None"),
            (1.0, "<2%"),
            (1.999, "<2%"),
            (2.0, "2–4%"),
            (4.0, "4–6%"),
            (6.0, ">6%"),
            (100.0, ">6%"),
        ],
    )
    def test_bin_p400(self, p, expected):
        assert bin_p400(p) == expected

    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0, "None"),
            (3.0, "<5%"),
            (7.0, "5–10%"),
            (10.0, "10–15%"),
            (15.0, ">15%"),
            (99.0, ">15%"),
        ],
    )
    def test_bin_p200(self, p, expected):
        assert bin_p200(p) == expected

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bin_p400(-0.1)
        with pytest.raises(ValueError):
            bin_p200(100.1)

    def test_none_means_zero_pixels_not_rounded_zero(self):
        # One hot pixel in a megapixel frame: tiny but non-zero percentage.
        p = 100.0 * 1 / (1024 * 1024)
        assert bin_p400(p) == "<2%"
        assert bin_p200(p) == "<5%"

    @given(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_bins_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        order7 = ["None", "<2%", "2–4%", "4–6%", ">6%"]
        order8 = ["None", "<5%", "5–10%", "10–15%", ">15%"]
        assert order7.index(bin_p400(lo)) <= order7.index(bin_p400(hi))
        assert order8.index(bin_p200(lo)) <= order8.index(bin_p200(hi))

    def test_bin_peak_temp(self, collinear_scene):
        r, agl = collinear_scene
        a = analyze_frame(r, agl_m=agl)
        assert bin_peak_temp(a) == "400–500"
        cold = analyze_frame(_raster(np.full((8, 8), 25.0)), agl_m=50.0)
        assert bin_peak_temp(cold) == "No hotspots"

    def test_bin_peak_boundaries(self):
        arr = np.full((32, 32), 25.0)
        _disk(arr, 16, 16, 4, 300.0)
        a = analyze_frame(_raster(arr), agl_m=_agl_for_gsd(0.5, 32))
        assert bin_peak_temp(a) == "300–400"

        arr2 = np.full((32, 32), 25.0)
        _disk(arr2, 16, 16, 4, 612.5)
        b = analyze_frame(_raster(arr2), agl_m=_agl_for_gsd(0.5, 32))
        assert bin_peak_temp(b) == ">500"


class TestAnswerSheet:
    def test_cold_frame_forced_family(self):
        a = analyze_frame(_raster(np.full((16, 16), 20.0)), agl_m=60.0, frame_id="cold")
        sheet = answer_sheet(a)
        assert sheet.get("PD1") == "No"
        assert sheet.get("PD7") == "No fire"
        assert sheet.get("DS1") == "No active hotspots"
        assert sheet.get("DS3") == "No active hotspots"
        assert sheet.get("LD1") == "No hotspots"
        assert sheet.get("CMR4") == "No hotspots"
        assert sheet.get("DS7") == "None"
        assert sheet.get("DS8") == "None"

    def test_isolated_pair_scene(self):
        arr = np.full((96, 96), 25.0)
        _disk(arr, 20, 20, 4, 500.0)
        _disk(arr, 20, 26, 4, 500.0)
        _disk(arr, 80, 80, 3, 260.0)  # far singleton, > 30 m at GSD 1
        a = analyze_frame(_raster(arr), agl_m=_agl_for_gsd(1.0, 96), frame_id="iso")
        sheet = answer_sheet(a)
        assert sheet.get("PD7") == "Yes"
        assert sheet.get("PD1") == "Yes"

    def test_fp2_from_agl(self, collinear_scene):
        r, _ = collinear_scene
        a = analyze_frame(r, agl_m=110.0, frame_id="alt")
        assert answer_sheet(a).get("FP2") == "100–150 m"

    @pytest.mark.parametrize(
        "agl,want",
        [
            (-5.0, ("0–50 m", "deterministic", "negative AGL, suspect")),
            (0.0, ("0–50 m", "deterministic", None)),
            (-0.0, ("0–50 m", "deterministic", None)),
            (None, (None, "deterministic", "AGL unavailable")),
        ],
    )
    def test_fp2_without_positive_agl(self, agl, want):
        a = analyze_frame(_raster(np.full((16, 16), 20.0)), agl_m=agl, frame_id="fp2")
        fp2 = answer_sheet(a).answers["FP2"]
        assert (fp2.option, fp2.provenance, fp2.note) == want

    def test_all_filled_options_canonical(self, collinear_scene):
        r, agl = collinear_scene
        sheet = answer_sheet(analyze_frame(r, agl_m=agl))
        for qid, option in sheet.filled().items():
            validate_option(qid, option)  # raises on any free-text leak

    def test_deterministic_slots_only(self, collinear_scene):
        r, agl = collinear_scene
        sheet = answer_sheet(analyze_frame(r, agl_m=agl))
        for qid, ans in sheet.answers.items():
            if ans.option is not None:
                assert qid in DETERMINISTIC_IDS
                assert ans.provenance == "deterministic"

    def test_missing_agl_leaves_notes(self):
        a = analyze_frame(_raster(np.full((16, 16), 250.0)), frame_id="noagl")
        sheet = answer_sheet(a)
        assert sheet.get("PD1") is None
        assert sheet.answers["PD1"].note
        assert sheet.get("FP2") is None
        assert sheet.get("DS8") == ">15%"  # coverage slots still deterministic

    def test_external_answers_validated(self):
        sheet = AnswerSheet(frame_id="f")
        sheet.set_external("CL1", "Active fire")
        assert sheet.get("CL1") == "Active fire"
        with pytest.raises(ValueError, match="canonical"):
            sheet.set_external("CL1", "on fire")

    def test_external_answer_for_unknown_question_raises_value_error(self):
        sheet = AnswerSheet(frame_id="f")
        with pytest.raises(ValueError, match="unknown question id 'ZZ9'"):
            sheet.set_external("ZZ9", "Yes")
        assert sheet == AnswerSheet(frame_id="f")

    def test_external_answer_cannot_overwrite_deterministic_slot(self, collinear_scene):
        r, agl = collinear_scene
        sheet = answer_sheet(analyze_frame(r, agl_m=agl, frame_id="ext"))
        before = sheet.to_json()
        for qid in DETERMINISTIC_IDS:
            with pytest.raises(ValueError, match="deterministic"):
                sheet.set_external(qid, choices(qid)[0])
        assert sheet.to_json() == before

    def test_sheet_json_round_trip(self, collinear_scene):
        r, agl = collinear_scene
        sheet = answer_sheet(analyze_frame(r, agl_m=agl, frame_id="rt"))
        sheet.set_external("PD2", "No")
        back = AnswerSheet.from_json(sheet.to_json())
        assert back.to_json() == sheet.to_json()
        assert back.get("PD2") == "No"


class TestQuestionTable:
    def test_inventory_counts(self):
        assert len(QUESTIONS) == 34
        by_cat = {}
        for qid in QUESTIONS:
            by_cat.setdefault(qid[:2] if not qid.startswith("CMR") else "CMR", []).append(qid)
        assert len(by_cat["PD"]) == 8
        assert len(by_cat["CL"]) == 6
        assert len(by_cat["DS"]) == 8
        assert len(by_cat["LD"]) == 4
        assert len(by_cat["CMR"]) == 4
        assert len(by_cat["FP"]) == 4

    @pytest.mark.parametrize(
        ("qid", "labels", "null"),
        [
            ("DS1", [e.value for e in SpatialDistributionLabel], SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS.value),
            ("PD7", [e.value for e in IsolationVerdict], IsolationVerdict.NO_FIRE.value),
            ("DS3", list(_DS3_WORDING.values()), _DS3_WORDING[IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS]),
            (
                "LD1",
                [*{locate_pixel(x, y, w, h) for w, h in ((9, 9), (10, 7)) for x in range(w) for y in range(h)},
                 REGION_NO_HOTSPOTS],
                REGION_NO_HOTSPOTS,
            ),
        ],
    )
    def test_labels_are_their_slots_options(self, qid, labels, null):
        # Each slot's null answer is its last option.
        assert sorted(labels) == sorted(choices(qid))
        assert null == choices(qid)[-1]

    def test_ds3_wording_covers_every_intensity_label(self):
        assert set(_DS3_WORDING) == set(IntensityConsistencyLabel)

    def test_unknown_question_rejected(self):
        with pytest.raises(KeyError):
            validate_option("ZZ9", "Yes")


class TestRagSummary:
    def test_constant_frame(self):
        rs = rag_summary(_raster(np.full((10, 10), 25.0)))
        d = rs.as_dict()
        assert d["min_c"] == d["max_c"] == d["mean_c"] == 25.0
        assert d["std_c"] == 0.0
        assert d["pct_above_200"] == d["pct_above_400"] == 0.0

    def test_seven_hot_pixels(self):
        arr = np.full((10, 10), 20.0)
        arr.flat[:7] = 250.0
        assert rag_summary(_raster(arr)).as_dict()["pct_above_200"] == 7.0

    def test_prompt_template_reproduction(self):
        # Raster engineered to the published prompt statistics.
        n = 100
        rest = (96.4 * n - 32.1 - 612.5) / (n - 2)
        arr = np.full((10, 10), rest)
        arr.flat[0] = 32.1
        arr.flat[1] = 612.5
        text = rag_summary(_raster(arr)).as_text()
        assert "- Minimum Temp: 32.1\n" in text
        assert "- Maximum Temp: 612.5\n" in text
        assert "- Mean Temp: 96.4\n" in text
        expected = (
            "Temperature Summary (°C):\n"
            "- Minimum Temp: 32.1\n"
            "- Maximum Temp: 612.5\n"
            "- Mean Temp: 96.4\n"
            "- Temperature Std Dev: 52.2\n"
            "- Percentage of pixels above 200°C: 1.0\n"
            "- Percentage of pixels above 400°C: 1.0\n"
        )
        assert text == expected

    def test_shares_the_analysis_summary(self, collinear_scene):
        r, agl = collinear_scene
        assert rag_summary(r) is analyze_frame(r, agl_m=agl).summary

    @pytest.mark.parametrize("dropouts", [0, 40])
    def test_one_label_operation_memory(self, tmp_path, dropouts):
        temps = typical(0).astype(np.float32)
        rng = np.random.default_rng(1)
        temps.flat[rng.choice(temps.size, dropouts, replace=False)] = np.nan
        path = tmp_path / "typical.tif"
        write_tiff(path, temps)
        tracemalloc.start()
        try:
            r = load_thermal_tiff(path)
            analysis = analyze_frame(r, agl_m=120.0)
            analysis.to_json()
            answer_sheet(analysis).to_json()
            rag_summary(r).as_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert analysis.hotspots
        # The float64 temperatures (2.5 MiB) and one compacted copy of the
        # valid ones, squared in place, set the peak; a separate deviation
        # array would add 2.5 MiB more.
        assert peak <= 6.5 * 2**20

    def test_one_decimal_rendering(self):
        arr = np.full((4, 4), 123.456)
        text = rag_summary(_raster(arr)).as_text()
        assert "- Minimum Temp: 123.5\n" in text
