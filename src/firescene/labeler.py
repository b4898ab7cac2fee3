"""Per-frame deterministic labeling: analysis, answer bins, and answer sheets.

Runs the full thermal pipeline (threshold -> components -> validity filters ->
clustering -> distribution/intensity/isolation -> coverage -> hottest region),
bins continuous quantities into the benchmark answer options, and fills the
deterministic slots of an answer sheet. Everything is pure and reproducible:
the same raster, metadata, and parameters always yield bit-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

from . import hotspots as hs
from . import spatial as sp
from .geodesy import FrameMeta, altitude_bin
from .raster import RadiometricSummary, ThermalRaster, summarize
from .questions import QUESTIONS, validate_option

SCHEMA_VERSION = 1

PROVENANCE_DETERMINISTIC = "deterministic"
PROVENANCE_EXTERNAL = "external"


@dataclass(frozen=True)
class FrameAnalysis:
    """Full deterministic output for one frame.

    GSD-dependent fields (hotspots onward) are None, with a reason recorded
    in ``errors``, when no usable AGL was supplied.
    """

    frame_id: str
    summary: RadiometricSummary
    p200: float
    p400: float
    agl_m: float | None
    gsd_m: float | None
    hotspots: list[hs.Hotspot] | None
    clusters: sp.ClusterSet | None
    sdl: sp.SpatialDistributionLabel | None
    hicl: sp.IntensityConsistencyLabel | None
    isolated: sp.IsolationVerdict | None
    hottest_region: str | None
    agl_suspect: bool = False
    errors: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.p400 > self.p200:
            raise ValueError("p400 cannot exceed p200")
        if self.hotspots is not None:
            empty = len(self.hotspots) == 0
            if (self.sdl == sp.SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS) != empty:
                raise ValueError("SDL NoActiveHotspots must coincide with an empty hotspot list")
            if (self.hicl == sp.IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS) != empty:
                raise ValueError("HICL NoActiveHotspots must coincide with an empty hotspot list")
            if (self.hottest_region == hs.REGION_NO_HOTSPOTS) != empty:
                raise ValueError("hottest region 'No hotspots' must coincide with an empty list")

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "frame_id": self.frame_id,
            "summary": self.summary.as_dict(),
            "p200": self.p200,
            "p400": self.p400,
            "agl_m": self.agl_m,
            "gsd_m": self.gsd_m,
            "agl_suspect": self.agl_suspect,
            "hotspots": None if self.hotspots is None else [h.as_dict() for h in self.hotspots],
            "clusters": None if self.clusters is None else self.clusters.as_dict(),
            "sdl": None if self.sdl is None else self.sdl.value,
            "hicl": None if self.hicl is None else self.hicl.value,
            "isolated": None if self.isolated is None else self.isolated.value,
            "hottest_region": self.hottest_region,
            "errors": dict(self.errors),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> FrameAnalysis:
        return cls(
            frame_id=d["frame_id"],
            summary=RadiometricSummary(**d["summary"]),
            p200=d["p200"],
            p400=d["p400"],
            agl_m=d["agl_m"],
            gsd_m=d["gsd_m"],
            agl_suspect=d.get("agl_suspect", False),
            hotspots=None
            if d["hotspots"] is None
            else [hs.Hotspot.from_dict(x) for x in d["hotspots"]],
            clusters=None if d["clusters"] is None else sp.ClusterSet.from_dict(d["clusters"]),
            sdl=None if d["sdl"] is None else sp.SpatialDistributionLabel(d["sdl"]),
            hicl=None if d["hicl"] is None else sp.IntensityConsistencyLabel(d["hicl"]),
            isolated=None if d["isolated"] is None else sp.IsolationVerdict(d["isolated"]),
            hottest_region=d["hottest_region"],
            errors=dict(d.get("errors", {})),
            schema_version=d.get("schema_version", SCHEMA_VERSION),
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> FrameAnalysis:
        return cls.from_dict(json.loads(text))


@dataclass
class Answer:
    option: str | None = None
    provenance: str = PROVENANCE_EXTERNAL
    note: str | None = None


@dataclass
class AnswerSheet:
    """Question id -> chosen option, with per-slot provenance.

    Deterministic slots are filled only by this module; external slots accept
    answers through ``set_external`` which enforces the canonical choice list.
    """

    frame_id: str
    answers: dict[str, Answer] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        for qid in QUESTIONS:
            self.answers.setdefault(qid, Answer())

    def get(self, qid: str) -> str | None:
        return self.answers[qid].option

    def set_external(self, qid: str, option: str) -> None:
        validate_option(qid, option)
        self.answers[qid] = Answer(option=option, provenance=PROVENANCE_EXTERNAL)

    def filled(self) -> dict[str, str]:
        return {q: a.option for q, a in self.answers.items() if a.option is not None}

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "frame_id": self.frame_id,
            "answers": {
                q: {"option": a.option, "provenance": a.provenance, "note": a.note}
                for q, a in sorted(self.answers.items())
            },
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> AnswerSheet:
        sheet = cls(frame_id=d["frame_id"], schema_version=d.get("schema_version", SCHEMA_VERSION))
        for qid, a in d["answers"].items():
            sheet.answers[qid] = Answer(
                option=a.get("option"),
                provenance=a.get("provenance", PROVENANCE_EXTERNAL),
                note=a.get("note"),
            )
        return sheet

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> AnswerSheet:
        return cls.from_dict(json.loads(text))


def analyze_frame(
    raster: ThermalRaster,
    meta: FrameMeta | None = None,
    agl_m: float | None = None,
    hotspot_params: hs.HotspotParams | None = None,
    spatial_params: sp.SpatialParams | None = None,
    frame_id: str = "",
) -> FrameAnalysis:
    """Run the deterministic per-frame pipeline and record every intermediate.

    ``meta`` (when present) overrides the FOV used for ground projection.
    Without a positive ``agl_m``, the GSD-dependent fields are disabled and
    marked in ``errors`` instead of failing the whole frame.
    """
    hotspot_params = hotspot_params or hs.HotspotParams()
    if meta is not None and meta.fov_diag_deg != hotspot_params.fov_diag_deg:
        hotspot_params = replace(hotspot_params, fov_diag_deg=meta.fov_diag_deg)
    spatial_params = spatial_params or sp.SpatialParams()

    summ = summarize(raster)
    p200, p400 = summ.pct_above_200, summ.pct_above_400

    errors: dict[str, str] = {}
    if agl_m is None or agl_m <= 0:
        reason = (
            "AGL unavailable: ground-projected fields disabled"
            if agl_m is None
            else f"AGL {agl_m} not positive: ground-projected fields disabled"
        )
        errors["hotspots"] = reason
        return FrameAnalysis(
            frame_id=frame_id,
            summary=summ,
            p200=p200,
            p400=p400,
            agl_m=agl_m,
            gsd_m=None,
            hotspots=None,
            clusters=None,
            sdl=None,
            hicl=None,
            isolated=None,
            hottest_region=None,
            errors=errors,
        )

    g = hs.gsd(agl_m, hotspot_params.fov_diag_deg, raster.width)
    spots = hs.extract_hotspots(raster, agl_m, hotspot_params)
    clusters = sp.single_linkage_clusters(spots, g, spatial_params)
    sdl = sp.classify_distribution(spots, g, spatial_params)
    hicl = sp.intensity_consistency(spots, spatial_params)
    isolated = sp.isolated_heat_sources(clusters, spots, g, spatial_params)
    region = hs.hottest_location(raster, spots, hotspot_params)

    return FrameAnalysis(
        frame_id=frame_id,
        summary=summ,
        p200=p200,
        p400=p400,
        agl_m=agl_m,
        gsd_m=g,
        hotspots=spots,
        clusters=clusters,
        sdl=sdl,
        hicl=hicl,
        isolated=isolated,
        hottest_region=region,
    )


def bin_p400(p: float) -> str:
    """DS7 coverage bin. "None" means literally zero qualifying pixels."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentage {p} outside [0, 100]")
    if p == 0.0:
        return "None"
    if p < 2.0:
        return "<2%"
    if p < 4.0:
        return "2–4%"
    if p < 6.0:
        return "4–6%"
    return ">6%"


def bin_p200(p: float) -> str:
    """DS8 coverage bin, edges at 5/10/15 with the lower edge inclusive."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentage {p} outside [0, 100]")
    if p == 0.0:
        return "None"
    if p < 5.0:
        return "<5%"
    if p < 10.0:
        return "5–10%"
    if p < 15.0:
        return "10–15%"
    return ">15%"


def bin_peak_temp(analysis: FrameAnalysis) -> str:
    """CMR4 bin of the hottest hotspot peak, lower-inclusive at 200/300/400/500.

    The 100-200 option is unreachable when hotspots require >= 200 C; it is
    kept only so hand-made sheets with nonstandard thresholds stay expressible.
    """
    if not analysis.hotspots:
        return "No hotspots"
    peak = max(h.peak_temp_c for h in analysis.hotspots)
    if peak < 200.0:
        return "100–200"
    if peak < 300.0:
        return "200–300"
    if peak < 400.0:
        return "300–400"
    if peak < 500.0:
        return "400–500"
    return ">500"


_DS3_WORDING = {
    sp.IntensityConsistencyLabel.SIMILAR: "Similar intensity",
    sp.IntensityConsistencyLabel.CLEARLY_DIFFERENT: "Different intensity",
    sp.IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS: "No active hotspots",
}


def answer_sheet(analysis: FrameAnalysis) -> AnswerSheet:
    """Fill the deterministic slots of a fresh answer sheet from an analysis.

    Slots whose prerequisites are missing stay empty with a note; all other
    slots stay empty with external provenance for downstream annotators.
    """
    sheet = AnswerSheet(frame_id=analysis.frame_id)

    def put(qid: str, option: str) -> None:
        validate_option(qid, option)
        sheet.answers[qid] = Answer(option=option, provenance=PROVENANCE_DETERMINISTIC)

    def missing(qid: str, why: str) -> None:
        sheet.answers[qid] = Answer(option=None, provenance=PROVENANCE_DETERMINISTIC, note=why)

    put("DS7", bin_p400(analysis.p400))
    put("DS8", bin_p200(analysis.p200))

    if analysis.hotspots is None:
        why = analysis.errors.get("hotspots", "hotspot analysis unavailable")
        for qid in ("PD1", "PD7", "DS1", "DS3", "LD1", "CMR4"):
            missing(qid, why)
    else:
        put("PD1", "Yes" if analysis.hotspots else "No")
        put("PD7", analysis.isolated.value)
        put("DS1", analysis.sdl.value)
        put("DS3", _DS3_WORDING[analysis.hicl])
        put("LD1", analysis.hottest_region)
        put("CMR4", bin_peak_temp(analysis))

    if analysis.agl_m is not None and analysis.agl_m >= 0:
        put("FP2", altitude_bin(analysis.agl_m).label)
    elif analysis.agl_m is not None:
        ab = altitude_bin(analysis.agl_m)
        sheet.answers["FP2"] = Answer(
            option=ab.label, provenance=PROVENANCE_DETERMINISTIC, note="negative AGL, suspect"
        )
    else:
        missing("FP2", "AGL unavailable")

    _assert_forced_consistency(sheet)
    return sheet


def _assert_forced_consistency(sheet: AnswerSheet) -> None:
    """Cold frames force the whole hotspot question family to its null options."""
    if sheet.get("PD1") == "No":
        forced = {
            "PD7": "No fire",
            "DS1": "No active hotspots",
            "DS3": "No active hotspots",
            "LD1": "No hotspots",
            "CMR4": "No hotspots",
        }
        for qid, want in forced.items():
            got = sheet.get(qid)
            if got is not None and got != want:
                raise AssertionError(f"forced-consistency breach: PD1=No but {qid}={got!r}")


@dataclass(frozen=True)
class RagSummary:
    """Radiometric prompt block: JSON fields plus the exact text template."""

    summary: RadiometricSummary

    def as_dict(self) -> dict[str, float]:
        return self.summary.as_dict()

    def as_text(self) -> str:
        s = self.summary
        return (
            "Temperature Summary (°C):\n"
            f"- Minimum Temp: {s.min_c:.1f}\n"
            f"- Maximum Temp: {s.max_c:.1f}\n"
            f"- Mean Temp: {s.mean_c:.1f}\n"
            f"- Temperature Std Dev: {s.std_c:.1f}\n"
            f"- Percentage of pixels above 200°C: {s.pct_above_200:.1f}\n"
            f"- Percentage of pixels above 400°C: {s.pct_above_400:.1f}\n"
        )


def rag_summary(raster: ThermalRaster) -> RagSummary:
    """Radiometric summary for retrieval-augmented prompting."""
    return RagSummary(summary=summarize(raster))
