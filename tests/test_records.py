"""The record codec: round trips of every record type, older documents,
malformed or corrupted documents, which raise only ``ValueError``, and the
JSON writer against ``json.dumps``."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import corrupted, make_hotspot, table_from_rows
from firescene.features import Keypoint, KeypointTable, MatchResult
from firescene.hotspots import Hotspot, HotspotTable
from firescene.labeler import SCHEMA_VERSION, Answer, AnswerSheet, FrameAnalysis, analyze_frame, answer_sheet
from firescene.questions import QUESTIONS, choices
from firescene.raster import RadiometricSummary, ThermalRaster
from firescene import records
from firescene.records import _dumps
from firescene.spatial import ClusterSet
from test_golden import ember_field


def _scene() -> ThermalRaster:
    """Three hot disks, two of them close: hotspots, two clusters and every label set."""
    temps = np.full((64, 64), 25.0)
    yy, xx = np.mgrid[0:64, 0:64]
    for cx, cy, peak in ((12, 12, 450.0), (20, 14, 320.0), (50, 48, 610.0)):
        temps[(yy - cy) ** 2 + (xx - cx) ** 2 <= 9] = peak
    return ThermalRaster.from_array(temps)


def _analysis(agl_m: float | None = 40.0) -> FrameAnalysis:
    return analyze_frame(_scene(), agl_m=agl_m, frame_id="scene")


def _sheet() -> AnswerSheet:
    sheet = answer_sheet(_analysis())
    sheet.set_external("PD2", "Yes")
    return sheet


RECORDS = {
    "hotspot": lambda: make_hotspot(3, 10.5, 20.25, area_m2=4.0, peak_c=512.5),
    "clusters": lambda: ClusterSet(clusters=((0, 1), (2,)), main_index=0, total_area_m2=(8.0, 3.5)),
    "clusters-empty": lambda: ClusterSet(clusters=(), main_index=None, total_area_m2=()),
    "summary": lambda: RadiometricSummary(20.0, 610.0, 31.5, 40.25, 2.5, 1.0),
    "match": lambda: MatchResult(
        putative=40, survivors=30, inliers=20, homography=tuple(float(v) for v in range(9)), near_duplicate=True
    ),
    "match-unverified": lambda: MatchResult(
        putative=40, survivors=3, inliers=0, homography=None, near_duplicate=False
    ),
    "analysis": _analysis,
    "analysis-no-agl": lambda: _analysis(agl_m=None),
    "analysis-cold": lambda: analyze_frame(ThermalRaster.from_array(np.full((16, 16), 20.0)), agl_m=50.0),
    "answer": lambda: Answer(option="Yes", provenance="deterministic", note="checked"),
    "sheet": _sheet,
}


# One changed leaf per hotspot field; area and radius move within the invariant's 1e-9 tolerance.
_LEAF_CHANGES = {
    "id": lambda v: v + 1,
    "pixel_count": lambda v: v + 1,
    "centroid_px": lambda v: [v[0] + 0.5, v[1]],
    "centroid_m": lambda v: [v[0], v[1] - 0.25],
    "area_m2": lambda v: v * (1 + 1e-12),
    "radius_m": lambda v: v * (1 - 1e-12),
    "peak_temp_c": lambda v: v + 0.5,
    "peak_px": lambda v: [v[0], v[1] + 1],
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_dict_and_json_round_trip(self, name):
        rec = RECORDS[name]()
        cls = type(rec)
        assert cls.from_dict(rec.as_dict()) == rec
        text = rec.to_json()
        assert cls.from_json(text) == rec
        assert cls.from_json(text).to_json() == text
        assert cls.from_json(text.encode()) == rec

    def test_fixture_shapes(self):
        a, no_agl, cold = RECORDS["analysis"](), RECORDS["analysis-no-agl"](), RECORDS["analysis-cold"]()
        assert len(a.hotspots) == 3 and len(a.clusters.clusters) == 2
        assert no_agl.hotspots is None and no_agl.clusters is None and no_agl.errors
        assert cold.clusters == RECORDS["clusters-empty"]()

    def test_json_form(self):
        d = json.loads(RECORDS["analysis"]().to_json())
        assert (d["sdl"], d["hicl"], d["isolated"]) == ("Linear", "Clearly different", "Yes")
        assert d["summary"]["max_c"] == 610.0
        assert d["hotspots"][0]["peak_px"] == [12, 9]
        assert d["clusters"]["clusters"] == [[0, 1], [2]]
        assert json.loads(RECORDS["match"]().to_json())["homography"] == list(range(9))

    @pytest.mark.parametrize("key", sorted(_LEAF_CHANGES))
    def test_analysis_equality_reads_every_hotspot_column(self, key):
        a = RECORDS["analysis"]()
        assert FrameAnalysis.from_json(a.to_json()) == a
        d = json.loads(a.to_json())
        d["hotspots"][2][key] = _LEAF_CHANGES[key](d["hotspots"][2][key])
        changed = FrameAnalysis.from_dict(d)
        assert changed != a and a != changed and changed.hotspots != a.hotspots

    def test_as_dict_shares_no_record(self):
        a = RECORDS["analysis"]()
        d = a.as_dict()
        assert isinstance(d["summary"], dict) and isinstance(d["hotspots"][0], dict)
        assert d["hotspots"][0]["centroid_px"] == a.hotspots[0].centroid_px


class TestIntsInFloatFields:
    """A float field reads an int as a float, so the record writes its canonical bytes."""

    def test_summary_read_back_writes_canonical_bytes(self):
        canonical = RadiometricSummary(20.0, 610.0, 31.5, 40.25, 0.0, 0.0)
        back = RadiometricSummary.from_dict(
            {"min_c": 20, "max_c": 610, "mean_c": 31.5, "std_c": 40.25, "pct_above_200": 0, "pct_above_400": 0}
        )
        assert back == canonical and type(back.min_c) is float and type(back.pct_above_200) is float
        assert back.to_json() == canonical.to_json()

    def test_analysis_read_back_writes_canonical_bytes(self):
        a = analyze_frame(_scene(), agl_m=40.0, frame_id="scene")
        d = json.loads(a.to_json())
        assert (d["agl_m"], d["summary"]["max_c"], d["hotspots"][0]["peak_temp_c"]) == (40.0, 610.0, 450.0)
        d["agl_m"], d["summary"]["max_c"], d["hotspots"][0]["peak_temp_c"] = 40, 610, 450
        back = FrameAnalysis.from_dict(d)
        assert back == a and back.to_json() == a.to_json()


class TestOlderDocuments:
    def test_v1_analysis_without_optional_keys(self):
        a = RECORDS["analysis"]()
        d = json.loads(a.to_json())
        for key in ("agl_suspect", "errors", "schema_version"):
            del d[key]
        back = FrameAnalysis.from_dict(d)
        assert back.agl_suspect is False and back.errors == {} and back.schema_version == SCHEMA_VERSION
        assert back == a

    def test_sheet_without_schema_version_or_answer_keys(self):
        d = json.loads(_sheet().to_json())
        del d["schema_version"]
        d["answers"] = {"PD2": {"option": "Yes"}}
        sheet = AnswerSheet.from_dict(d)
        assert sheet.schema_version == SCHEMA_VERSION
        assert sheet.answers["PD2"] == Answer(option="Yes")
        assert sheet.answers["PD1"] == Answer()


def _mutations():
    def unknown(d):
        d["frame_jd"] = d.pop("frame_id")

    def missing(d):
        del d["summary"]

    def text_for_float(d):
        d["p200"] = "0.5"

    def bool_for_int(d):
        d["hotspots"][0]["pixel_count"] = True

    def float_for_int(d):
        d["hotspots"][0]["id"] = 1.5

    def short_tuple(d):
        d["hotspots"][0]["centroid_px"] = [1.0]

    def object_for_array(d):
        d["hotspots"] = {"0": d["hotspots"][0]}

    def array_for_object(d):
        d["summary"] = list(d["summary"].values())

    def bad_enum(d):
        d["sdl"] = "Sideways"

    def null_record(d):
        d["summary"] = None

    def unknown_row_key(d):
        d["hotspots"][1]["peak_py"] = d["hotspots"][1].pop("peak_px")

    def extra_row_key(d):
        d["hotspots"][2]["note"] = "x"

    def missing_row_key(d):
        del d["hotspots"][0]["radius_m"]

    def array_for_row(d):
        d["hotspots"][1] = list(d["hotspots"][1].values())

    def long_tuple(d):
        d["hotspots"][2]["peak_px"] = [1, 2, 3]

    def number_for_tuple(d):
        d["hotspots"][0]["centroid_m"] = 1.5

    def bool_in_tuple(d):
        d["hotspots"][1]["peak_px"] = [1, False]

    def text_in_tuple(d):
        d["hotspots"][2]["centroid_px"] = [1.0, "2.0"]

    def null_leaf(d):
        d["hotspots"][0]["peak_temp_c"] = None

    def broken_invariant(d):
        d["hotspots"][2]["radius_m"] *= 2

    return [unknown, missing, text_for_float, bool_for_int, float_for_int, short_tuple,
            object_for_array, array_for_object, bad_enum, null_record, unknown_row_key, extra_row_key,
            missing_row_key, array_for_row, long_tuple, number_for_tuple, bool_in_tuple, text_in_tuple,
            null_leaf, broken_invariant]


class TestMalformed:
    @pytest.mark.parametrize("mutate", _mutations(), ids=lambda f: f.__name__)
    def test_malformed_analysis_raises_value_error(self, mutate):
        d = json.loads(RECORDS["analysis"]().to_json())
        mutate(d)
        with pytest.raises(ValueError):
            FrameAnalysis.from_dict(d)

    @pytest.mark.parametrize("doc", [[], "x", 3, None, {"frame_id": "f", "answers": []}])
    def test_wrong_shape_sheet_raises_value_error(self, doc):
        with pytest.raises(ValueError, match="malformed"):
            AnswerSheet.from_json(json.dumps(doc))

    def test_invariants_still_apply(self):
        d = RECORDS["analysis"]().as_dict()
        d["hotspots"] = []
        with pytest.raises(ValueError, match="SDL NoActiveHotspots"):
            FrameAnalysis.from_dict(d)

    @pytest.mark.parametrize(
        "kind, isolated", [("analysis-cold", "Yes"), ("analysis-cold", "No"), ("analysis", "No fire")]
    )
    def test_isolation_verdict_must_match_hotspots(self, kind, isolated):
        d = RECORDS[kind]().as_dict()
        d["isolated"] = isolated
        with pytest.raises(ValueError, match="isolation 'No fire' must coincide"):
            FrameAnalysis.from_dict(d)

    def test_free_text_sheet_rejected(self):
        doc = {
            "frame_id": "f",
            "answers": {"ZZ9": {"option": "on fire"}, "PD1": {"option": "Maybe", "provenance": "whatever"}},
            "schema_version": 99,
        }
        with pytest.raises(ValueError):
            AnswerSheet.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "answers, match",
        [
            ({"ZZ9": {"option": None}}, "unknown question id 'ZZ9'"),
            ({"ZZ9": {}}, "unknown question id"),
            ({"PD1": {"option": "Maybe"}}, "not a canonical choice for PD1"),
            ({"DS8": {"option": "none"}}, "not a canonical choice for DS8"),
            ({"PD1": {"option": "Yes", "provenance": "whatever"}}, "unknown provenance 'whatever'"),
            ({"PD1": {"provenance": "Deterministic"}}, "unknown provenance"),
        ],
    )
    def test_sheet_rules(self, answers, match):
        d = _sheet().as_dict()
        d["answers"] = answers
        with pytest.raises(ValueError, match=match):
            AnswerSheet.from_dict(d)

    @pytest.mark.parametrize("version", [0, -1, SCHEMA_VERSION + 1, 99])
    @pytest.mark.parametrize("kind", ["analysis", "sheet"])
    def test_schema_version_outside_known_range(self, kind, version):
        rec = RECORDS[kind]()
        d = json.loads(rec.to_json())
        d["schema_version"] = version
        with pytest.raises(ValueError, match=f"schema_version {version} outside 1..{SCHEMA_VERSION}"):
            type(rec).from_dict(d)

    def test_every_known_slot_and_option_accepted(self):
        d = _sheet().as_dict()
        d["answers"] = {qid: {"option": choices(qid)[-1], "provenance": "external"} for qid in QUESTIONS}
        sheet = AnswerSheet.from_dict(d)
        assert sheet.filled() == {qid: choices(qid)[-1] for qid in QUESTIONS}

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_int_too_large_for_a_float_field_raises_value_error(self, value):
        d = RECORDS["summary"]().as_dict()
        d["min_c"] = value
        with pytest.raises(ValueError, match="too large"):
            RadiometricSummary.from_dict(d)

    @pytest.mark.parametrize("key, value", [("id", 2**63), ("pixel_count", 2**70), ("peak_px", [0, -(2**63) - 1])],
                             ids=["id", "pixel_count", "peak_px"])
    def test_int_beyond_int64_in_a_table_raises_value_error(self, key, value):
        d = RECORDS["analysis"]().as_dict()
        d["hotspots"][1][key] = value
        with pytest.raises(ValueError, match="too large"):
            FrameAnalysis.from_dict(d)

    def test_bool_in_a_float_field_raises_value_error(self):
        d = RECORDS["summary"]().as_dict()
        d["pct_above_400"] = True
        with pytest.raises(ValueError, match="expected int or float, got bool"):
            RadiometricSummary.from_dict(d)

    def test_huge_radius_raises_value_error(self):
        d = RECORDS["hotspot"]().as_dict()
        d["area_m2"] = d["radius_m"] = 1e200
        with pytest.raises(ValueError, match="radius inconsistent"):
            Hotspot.from_dict(d)


_DOCUMENTS = {
    "analysis": (FrameAnalysis, RECORDS["analysis"]().to_json().encode()),
    "sheet": (AnswerSheet, _sheet().to_json().encode()),
}


@pytest.mark.parametrize("kind", sorted(_DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_document_raises_only_value_error(kind, data):
    cls, blob = _DOCUMENTS[kind]
    try:
        cls.from_json(data.draw(corrupted(blob)))
    except ValueError:
        pass


def _stdlib_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# Strings and keys with unicode, control characters, NUL, quotes, "%" and ",".
_TEXT = st.text() | st.text(alphabet="%,\0\x01\x1f\x7f\"\\/ aZé \U0001f525", max_size=8)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
_INT64 = st.integers(-(2**63), 2**63 - 1)  # a table's int columns are int64
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | _TEXT
)


def _containers(inner):
    return (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=5)
    )


_JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


@st.composite
def _hotspots(draw) -> Hotspot:
    """A valid hotspot with drawn ids, pixel counts, centroids and peaks, non-finite ones too."""
    area = draw(st.floats(1e-3, 1e6))
    return Hotspot(
        id=draw(_INT64),
        pixel_count=draw(st.integers(1, 2**63 - 1)),
        centroid_px=(draw(_FLOATS), draw(_FLOATS)),
        centroid_m=(draw(_FLOATS), draw(_FLOATS)),
        area_m2=area,
        radius_m=math.sqrt(area / math.pi),
        peak_temp_c=draw(_FLOATS),
        peak_px=(draw(_INT64), draw(_INT64)),
    )


# A small pool of float and int leaves, so that rows repeat them: both zeros, NaNs of
# distinct payloads, both infinities and the int64 extremes.
_NANS = [struct.unpack("<d", struct.pack("<Q", bits))[0]
         for bits in (0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000DAD)]
_POOL_FLOATS = st.sampled_from([0.0, -0.0, *_NANS, math.inf, -math.inf, 0.1, 1e16, 5e-324])
_POOL_INTS = st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 7])
_POOL_AREAS = st.sampled_from([1.0, 2.0, 1e6])


@st.composite
def _pooled_hotspots(draw) -> Hotspot:
    """A valid hotspot whose leaves come from the small pools above."""
    area = draw(_POOL_AREAS)
    return Hotspot(
        id=draw(_POOL_INTS),
        pixel_count=draw(st.sampled_from([1, 25, 2**63 - 1])),
        centroid_px=(draw(_POOL_FLOATS), draw(_POOL_FLOATS)),
        centroid_m=(draw(_POOL_FLOATS), draw(_POOL_FLOATS)),
        area_m2=area,
        radius_m=math.sqrt(area / math.pi),
        peak_temp_c=draw(_POOL_FLOATS),
        peak_px=(draw(_POOL_INTS), draw(_POOL_INTS)),
    )


def _float_leaves(doc):
    """Every float leaf of a document of dicts, lists and tuples, in document order."""
    if isinstance(doc, dict):
        return [v for x in doc.values() for v in _float_leaves(x)]
    if isinstance(doc, (list, tuple)):
        return [v for x in doc for v in _float_leaves(x)]
    return [doc] if isinstance(doc, float) else []


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestWriter:
    """``records._dumps`` against ``json.dumps(doc, sort_keys=True, indent=2)``."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc) == _stdlib_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"a%sb": [1, "%s", "%%d"], "%": {"%(x)s": None}},
            [np.float64(0.1), np.float64(math.nan), -np.float64(math.inf), 0.1, 2**100, -(2**70)],
            {"\0": "\0x\0", "é": " \U0001f525\x1f", "": ""},
            {"e": {}, "l": [], "t": (), "n": [[[]], [{}], ({"k": ()},)]},
            [],
            {},
            "top%s",
            np.float64(1e300),
            None,
        ],
    )
    def test_examples(self, doc):
        assert _dumps(doc) == _stdlib_json(doc)

    def test_numpy_float_written_as_float(self):
        # numpy 2's repr() gives "np.float64(0.1)"; JSON takes float.__repr__.
        assert _dumps([np.float64(0.1)]) == f"[\n  {float.__repr__(0.1)}\n]"

    @pytest.mark.parametrize("leaf", [np.int64(3), object(), np.bool_(True), {1, 2}, b"x"],
                             ids=["int64", "object", "bool_", "set", "bytes"])
    def test_unsupported_leaf_raises_type_error(self, leaf):
        for doc in (leaf, [1, leaf], {"k": {"j": leaf}}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                _stdlib_json(doc)
            with pytest.raises(TypeError, match="is not JSON serializable"):
                _dumps(doc)

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_keys_other_than_str_raise_type_error(self, key):
        with pytest.raises(TypeError):
            _dumps({"a": [{key: 0}]})
        with pytest.raises(TypeError):
            _dumps({key: 0})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_table_matches_json_dumps_of_its_rows(self, data):
        rows = data.draw(
            st.lists(_hotspots(), max_size=6)
            | st.lists(_hotspots(), min_size=1, max_size=1)
            | st.lists(_pooled_hotspots(), min_size=1, max_size=12)
        )
        table = table_from_rows(HotspotTable, rows)
        doc, want = table, [h.as_dict() for h in rows]
        # As text: a NaN leaf is a new float object, unequal to the row's. Tables compare NaN equal.
        assert _stdlib_json(table.row_dicts()) == _stdlib_json(want) and table_from_rows(HotspotTable, rows) == table
        for _ in range(data.draw(st.integers(0, 3))):
            key = data.draw(_TEXT)
            wrap = data.draw(st.sampled_from([
                lambda x: {key: x, "%s": [1.5]},
                lambda x: [None, x, {}],
                lambda x: (x,),
            ]))
            doc, want = wrap(doc), wrap(want)
        assert _dumps(doc) == _stdlib_json(want)

    def test_pooled_table_keeps_distinct_nan_payloads(self):
        rows = [replace(make_hotspot(i, 1.0, 2.0), centroid_px=(nan, -0.0 if i % 2 else 0.0))
                for i, nan in enumerate(_NANS)]
        table = table_from_rows(HotspotTable, rows)
        assert len(set(table.centroid_px[:, 0].view(np.uint64).tolist())) == len(_NANS)
        assert _dumps({"t": table}) == _stdlib_json({"t": [h.as_dict() for h in rows]})

    def test_crowded_analysis_formats_each_distinct_hotspot_float_once(self, monkeypatch):
        """The C encoder receives each distinct hotspot float once, plus once per other leaf equal to it."""
        a = analyze_frame(ThermalRaster.from_array(ember_field(0, alternating=False)), agl_m=300.0)
        seen, write = [], records._LEAF_WRITER
        monkeypatch.setattr(records, "_LEAF_WRITER", lambda leaves, depth: (seen.extend(leaves), write(leaves, depth))[1])
        text = a.to_json()
        assert text == _stdlib_json(a.as_dict()) + "\n"
        doc = a.as_dict()
        hotspot_floats = set(map(_bits, _float_leaves(doc.pop("hotspots"))))
        others = Counter(map(_bits, _float_leaves(doc)))
        written = Counter(_bits(v) for v in seen if type(v) is float)
        assert 2000 < len(hotspot_floats) < 3000  # of 14,000 float leaves
        assert {b: written[b] for b in hotspot_floats} == {b: 1 + others[b] for b in hotspot_floats}

    def test_crowded_analysis_writes_each_distinct_column_value_once(self, monkeypatch):
        """The C encoder receives each distinct value of each hotspot column once, ints included."""
        hotspots = analyze_frame(ThermalRaster.from_array(ember_field(0, alternating=False)), agl_m=300.0).hotspots
        seen, write = [], records._LEAF_WRITER
        monkeypatch.setattr(records, "_LEAF_WRITER", lambda leaves, depth: (seen.extend(leaves), write(leaves, depth))[1])
        assert _dumps(hotspots) == _stdlib_json(hotspots.row_dicts())

        def key(v):
            return type(v), _bits(v) if type(v) is float else v

        want = Counter()
        for column in vars(hotspots).values():
            want.update(set(map(key, column.ravel().tolist())))
        assert Counter(map(key, seen)) == want
        assert len(hotspots) == 2000 and set(hotspots.pixel_count.tolist()) == {25}

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS), max_size=8)
           | st.lists(st.tuples(_POOL_FLOATS, _POOL_FLOATS, _POOL_FLOATS, _POOL_FLOATS), min_size=1, max_size=12))
    def test_float_only_table_matches_json_dumps_of_its_rows(self, values):
        rows = [Keypoint(*v) for v in values]
        table = table_from_rows(KeypointTable, rows)
        want = [dataclasses.asdict(k) for k in rows]
        assert _dumps(table) == _stdlib_json(want)
        assert _dumps({"k": [table]}) == _stdlib_json({"k": [want]})

    def test_empty_and_one_row_float_only_tables(self):
        assert _dumps(table_from_rows(KeypointTable, [])) == "[]"
        one = Keypoint(-0.0, math.nan, math.inf, -math.inf)
        assert _dumps([table_from_rows(KeypointTable, [one])]) == _stdlib_json([[dataclasses.asdict(one)]])

    def test_empty_and_one_row_tables(self):
        assert _dumps(table_from_rows(HotspotTable, [])) == "[]"
        assert _dumps({"t": table_from_rows(HotspotTable, [])}) == '{\n  "t": []\n}'
        one = make_hotspot(7, 1.0, 2.0)
        assert _dumps([table_from_rows(HotspotTable, [one])]) == _stdlib_json([[one.as_dict()]])

    def test_crowded_analysis_round_trip_builds_no_hotspot(self, monkeypatch):
        """Analysing, writing and reading back a 2000-hotspot frame builds no ``Hotspot``."""
        built = []
        check = Hotspot.__post_init__
        monkeypatch.setattr(Hotspot, "__post_init__", lambda h: (built.append(h.id), check(h)))
        a = analyze_frame(ThermalRaster.from_array(ember_field(0, alternating=False)), agl_m=300.0)
        text, sheet = a.to_json(), answer_sheet(a).to_json()
        assert len(a.hotspots) == 2000 and json.loads(sheet)["answers"]["PD1"]["option"] == "Yes"
        back = FrameAnalysis.from_json(text)
        assert back == a and back.to_json() == text
        assert built == []
        assert a.as_dict()["hotspots"] == [h.as_dict() for h in a.hotspots]

    def test_crowded_analysis_peak_at_most_stdlib(self):
        """One ``to_json`` of a 2000-hotspot analysis peaks no higher than ``json.dumps``."""
        a = analyze_frame(ThermalRaster.from_array(ember_field(1, alternating=True)), agl_m=300.0)
        assert len(a.hotspots) == 2000
        peaks = {}
        for name, write in (("stdlib", lambda: _stdlib_json(a.as_dict()) + "\n"), ("writer", a.to_json)):
            tracemalloc.start()
            try:
                text = write()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert text == a.to_json()
            del text
        assert peaks["writer"] <= peaks["stdlib"], peaks
