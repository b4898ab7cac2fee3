"""Per-frame deterministic labeling: analysis, answer bins, and answer sheets.

Runs the full thermal pipeline (threshold -> components -> validity filters ->
clustering -> distribution/intensity/isolation -> coverage -> hottest region),
bins continuous quantities into the benchmark answer options, and fills the
deterministic slots of an answer sheet. Everything is pure and reproducible:
the same raster, metadata, and parameters always yield bit-identical output.

A frame with a positive AGL is analyzed on two cores (``threads.both``): the
raster summary on the helper thread, hotspot extraction and the spatial
classifiers on the caller's. Both only read the frozen raster, and neither
uses the other's result. Extraction thresholds straight into its labeling
buffer and takes the hot pixels from the runs, so its peak memory stays small
beside the summary's compacted copy of the valid temperatures. The prompt
block, ``rag_summary``, is that summary itself, text template included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import hotspots as hs
from . import spatial as sp
from .geodesy import FrameMeta
from .raster import TEMP_MAX_C, TEMP_MIN_C, RadiometricSummary, ThermalRaster, summarize
from .questions import DETERMINISTIC_IDS, QUESTIONS, bin_option, choices, validate_option
from .records import Record
from .threads import both

SCHEMA_VERSION = 1

PROVENANCE_DETERMINISTIC = "deterministic"
PROVENANCE_EXTERNAL = "external"

# Slots that PD1 = "No" forces to their null options.
_HOTSPOT_FAMILY = ("PD7", "DS1", "DS3", "LD1", "CMR4")

# FrameAnalysis fields that need a ground sampling distance: all set, or all None.
_GSD_FIELDS = ("gsd_m", "hotspots", "clusters", "sdl", "hicl", "isolated", "hottest_region")


def _check_schema_version(version: int) -> None:
    if not 1 <= version <= SCHEMA_VERSION:
        raise ValueError(f"schema_version {version} outside 1..{SCHEMA_VERSION}")


@dataclass(frozen=True)
class FrameAnalysis(Record):
    """Full deterministic output for one frame.

    GSD-dependent fields (``gsd_m`` to ``hottest_region``) keep their None
    defaults, with a reason in ``errors``, when ``agl_m`` is None or not
    positive; when it is positive, every one of them is set. A mix, set
    fields beside any other ``agl_m``, unset ones beside a positive one, a
    non-finite ``agl_m``, a hotspot peak that no valid pixel could hold
    (not in [TEMP_MIN_C, TEMP_MAX_C], NaN included), ``p200`` or ``p400``
    other than the summary's percentage, or a ``hottest_region`` that is not
    an LD1 option raises ``ValueError``.
    """

    frame_id: str
    summary: RadiometricSummary
    p200: float
    p400: float
    agl_m: float | None
    gsd_m: float | None = None
    hotspots: hs.HotspotTable | None = None
    clusters: sp.ClusterSet | None = None
    sdl: sp.SpatialDistributionLabel | None = None
    hicl: sp.IntensityConsistencyLabel | None = None
    isolated: sp.IsolationVerdict | None = None
    hottest_region: str | None = None
    agl_suspect: bool = False
    errors: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version)
        if (self.p200, self.p400) != (self.summary.pct_above_200, self.summary.pct_above_400):
            raise ValueError("p200 and p400 must equal the summary's pct_above_200 and pct_above_400")
        if self.hottest_region is not None:
            validate_option("LD1", self.hottest_region)
        if self.agl_m is not None and not math.isfinite(self.agl_m):
            raise ValueError(f"AGL must be finite, got {self.agl_m}")
        if len({getattr(self, name) is None for name in _GSD_FIELDS}) > 1:
            raise ValueError(f"GSD-dependent fields {', '.join(_GSD_FIELDS)} must be all set or all None")
        if (self.gsd_m is not None) != (self.agl_m is not None and self.agl_m > 0):
            raise ValueError(f"GSD-dependent fields must be set exactly when AGL is positive, got AGL {self.agl_m}")
        if self.hotspots is not None:
            peaks = self.hotspots.peak_temp_c
            if not ((peaks >= TEMP_MIN_C) & (peaks <= TEMP_MAX_C)).all():  # NaN fails too
                raise ValueError(f"hotspot peaks must lie in [{TEMP_MIN_C}, {TEMP_MAX_C}] C")
        for name, value, null in (
            ("SDL NoActiveHotspots", self.sdl, sp.SpatialDistributionLabel.NO_ACTIVE_HOTSPOTS),
            ("HICL NoActiveHotspots", self.hicl, sp.IntensityConsistencyLabel.NO_ACTIVE_HOTSPOTS),
            ("hottest region 'No hotspots'", self.hottest_region, hs.REGION_NO_HOTSPOTS),
            ("isolation 'No fire'", self.isolated, sp.IsolationVerdict.NO_FIRE),
        ):
            if self.hotspots is not None and (value == null) != (len(self.hotspots) == 0):
                raise ValueError(f"{name} must coincide with an empty hotspot list")


@dataclass
class Answer(Record):
    option: str | None = None
    provenance: str = PROVENANCE_EXTERNAL
    note: str | None = None

    def __post_init__(self) -> None:
        if self.provenance not in (PROVENANCE_DETERMINISTIC, PROVENANCE_EXTERNAL):
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass
class AnswerSheet(Record):
    """Question id -> chosen option, with per-slot provenance.

    Deterministic slots are filled only by this module; external slots accept
    answers through ``set_external`` which enforces the canonical choice list.
    A sheet is built, or read back, only with known question ids and
    canonical options.
    """

    frame_id: str
    answers: dict[str, Answer] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_schema_version(self.schema_version)
        for qid, answer in self.answers.items():
            if qid not in QUESTIONS:
                raise ValueError(f"unknown question id {qid!r}")
            if answer.option is not None:
                validate_option(qid, answer.option)
        for qid in QUESTIONS:
            self.answers.setdefault(qid, Answer())

    def get(self, qid: str) -> str | None:
        return self.answers[qid].option

    def set_external(self, qid: str, option: str) -> None:
        if qid not in QUESTIONS:
            raise ValueError(f"unknown question id {qid!r}")
        if qid in DETERMINISTIC_IDS:
            raise ValueError(f"{qid} is a deterministic slot; only answer_sheet fills it")
        validate_option(qid, option)
        self.answers[qid] = Answer(option=option, provenance=PROVENANCE_EXTERNAL)

    def filled(self) -> dict[str, str]:
        return {q: a.option for q, a in self.answers.items() if a.option is not None}


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
    marked in ``errors`` instead of failing the whole frame; a non-finite
    ``agl_m`` raises ValueError.
    """
    if agl_m is not None and not math.isfinite(agl_m):
        raise ValueError(f"AGL must be finite, got {agl_m}")
    hotspot_params = hotspot_params or hs.HotspotParams()
    if meta is not None and meta.fov_diag_deg != hotspot_params.fov_diag_deg:
        hotspot_params = replace(hotspot_params, fov_diag_deg=meta.fov_diag_deg)
    spatial_params = spatial_params or sp.SpatialParams()

    def ground_fields() -> dict:
        g = hs.gsd(agl_m, hotspot_params.fov_diag_deg, raster.width)
        spots = hs.extract_hotspots(raster, agl_m, hotspot_params)
        clusters = sp.single_linkage_clusters(spots, g, spatial_params)
        return dict(
            gsd_m=g,
            hotspots=spots,
            clusters=clusters,
            sdl=sp.classify_distribution(spots, g, spatial_params),
            hicl=sp.intensity_consistency(spots, spatial_params),
            isolated=sp.isolated_heat_sources(clusters, spots, g, spatial_params),
            hottest_region=hs.hottest_location(raster, spots, hotspot_params),
        )

    if agl_m is None or agl_m <= 0:
        reason = "AGL unavailable" if agl_m is None else f"AGL {agl_m} not positive"
        summ, ground = summarize(raster), {"errors": {"hotspots": f"{reason}: ground-projected fields disabled"}}
    else:
        # The summary is the first call, so its EmptyRasterError wins as it did in order.
        summ, ground = both(lambda: summarize(raster), ground_fields)
    return FrameAnalysis(
        frame_id=frame_id, summary=summ, p200=summ.pct_above_200, p400=summ.pct_above_400,
        agl_m=agl_m, **ground,
    )


def _bin_percentage(qid: str, p: float) -> str:
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentage {p} outside [0, 100]")
    return choices(qid)[-1] if p == 0.0 else bin_option(qid, p)


def bin_p400(p: float) -> str:
    """DS7 coverage bin. "None" means literally zero qualifying pixels."""
    return _bin_percentage("DS7", p)


def bin_p200(p: float) -> str:
    """DS8 coverage bin, lower-inclusive at the DS8 edges; "None" as for DS7."""
    return _bin_percentage("DS8", p)


def bin_agl(agl_m: float) -> str:
    """FP2 bin of a finite AGL, lower-inclusive at the FP2 edges; a negative AGL falls in the lowest bin."""
    if not math.isfinite(agl_m):
        raise ValueError(f"AGL must be finite, got {agl_m}")
    return bin_option("FP2", agl_m)


def bin_peak_temp(analysis: FrameAnalysis) -> str:
    """CMR4 bin of the hottest hotspot peak, lower-inclusive at the CMR4 edges.

    The 100-200 option is unreachable when hotspots require >= 200 C; it is
    kept only so hand-made sheets with nonstandard thresholds stay expressible.
    """
    if not analysis.hotspots:
        return choices("CMR4")[-1]
    return bin_option("CMR4", analysis.hotspots.peak_temp_c.max().item())


_DS3_WORDING = dict(zip(sp.IntensityConsistencyLabel, choices("DS3")))


def answer_sheet(analysis: FrameAnalysis) -> AnswerSheet:
    """Fill the deterministic slots of a fresh answer sheet from an analysis.

    Slots whose prerequisites are missing stay empty with a note; all other
    slots stay empty with external provenance for downstream annotators.
    """
    sheet = AnswerSheet(frame_id=analysis.frame_id)

    def put(qid: str, option: str, note: str | None = None) -> None:
        validate_option(qid, option)
        sheet.answers[qid] = Answer(option=option, provenance=PROVENANCE_DETERMINISTIC, note=note)

    def missing(qid: str, why: str) -> None:
        sheet.answers[qid] = Answer(option=None, provenance=PROVENANCE_DETERMINISTIC, note=why)

    put("DS7", bin_p400(analysis.p400))
    put("DS8", bin_p200(analysis.p200))

    if analysis.hotspots is None:
        why = analysis.errors.get("hotspots", "hotspot analysis unavailable")
        for qid in ("PD1",) + _HOTSPOT_FAMILY:
            missing(qid, why)
    else:
        put("PD1", "Yes" if analysis.hotspots else "No")
        put("PD7", analysis.isolated.value)
        put("DS1", analysis.sdl.value)
        put("DS3", _DS3_WORDING[analysis.hicl])
        put("LD1", analysis.hottest_region)
        put("CMR4", bin_peak_temp(analysis))

    if analysis.agl_m is None:
        missing("FP2", "AGL unavailable")
    else:
        put("FP2", bin_agl(analysis.agl_m), note="negative AGL, suspect" if analysis.agl_m < 0 else None)

    _assert_forced_consistency(sheet)
    return sheet


def _assert_forced_consistency(sheet: AnswerSheet) -> None:
    """Cold frames force the whole hotspot question family to its null options."""
    if sheet.get("PD1") == choices("PD1")[-1]:
        for qid in _HOTSPOT_FAMILY:
            got = sheet.get(qid)
            if got is not None and got != choices(qid)[-1]:
                raise AssertionError(f"forced-consistency breach: PD1=No but {qid}={got!r}")


def rag_summary(raster: ThermalRaster) -> RadiometricSummary:
    """Radiometric prompt block for retrieval-augmented prompting: the raster's summary."""
    return summarize(raster)
