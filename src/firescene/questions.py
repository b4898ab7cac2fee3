"""Canonical benchmark question inventory and answer spaces.

Every answer written into a sheet must be drawn verbatim from the canonical
choice list of its question; the consistency rules reference the same
strings. Region options are spelled out in full (Top-left rather than TL).
The bin edges of the sensor-driven slots live here too, in ``BIN_EDGES``.
"""

from __future__ import annotations

import bisect

YES_NO = ("Yes", "No")
_REGIONS = ("Top-left", "Top-right", "Bottom-left", "Bottom-right", "Center")

#: question id -> (question text, canonical answer options)
QUESTIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    # Presence and detection
    "PD1": ("Are active thermal hotspots detected?", YES_NO),
    "PD2": ("Is smoke visible?", YES_NO),
    "PD3": ("Are visible flames present?", YES_NO),
    "PD4": ("Are any buildings or residential structures visible?", YES_NO),
    "PD5": ("Are natural fuel breaks like rock outcroppings or sparse vegetation visible?", YES_NO),
    "PD6": ("Are there standing dead trees that could contribute to high-intensity burning?", YES_NO),
    "PD7": (
        "Are there isolated heat sources far from the main fire perimeter?",
        ("Yes", "No", "No fire"),
    ),
    "PD8": (
        "How many emergency vehicles are visible in the scene?",
        ("0", "1–2", "3–4", ">4"),
    ),
    # Classification
    "CL1": (
        "What is the dominant fire behavior observed in the scene?",
        ("Active fire", "Smoldering", "Extinguished", "No fire"),
    ),
    "CL2": (
        "What is the dominant vegetation type in the scene?",
        ("Coniferous", "Deciduous", "Grassland", "Shrubland"),
    ),
    "CL3": (
        "Which moisture level best describes the live vegetation?",
        ("Lush/Green", "Transitioning", "Dry/Cured"),
    ),
    "CL4": (
        "What is the density of the forest canopy?",
        ("Dense/Closed", "Moderate", "Sparse/Open", "No forest"),
    ),
    "CL5": (
        "What is the primary fuel type on the ground by overall coverage?",
        ("Grass", "Forest litter", "Shrubs", "Mixed"),
    ),
    "CL6": (
        "How accessible is the active fire area via roads or trails?",
        ("Clear", "Partially", "No clear access", "No fire"),
    ),
    # Distribution and segmentation
    "DS1": (
        "What is the spatial distribution of the active hotspots?",
        ("Scattered", "Concentrated", "Linear", "No active hotspots"),
    ),
    "DS2": (
        "How continuous is the fuel bed in the fire's potential path?",
        ("Continuous", "Patchy", "Discontinuous"),
    ),
    "DS3": (
        "How consistent is the intensity of the active thermal hotspots in the scene?",
        ("Similar intensity", "Different intensity", "No active hotspots"),
    ),
    "DS4": (
        "What proportion of visible vegetation is affected by fire, either actively burning or already burned?",
        ("1–25%", "25–50%", ">50%", "None"),
    ),
    "DS5": (
        "Approximately what proportion of the image is covered by above-ground vegetation such as shrubs and trees?",
        ("1–25%", "25–50%", "50–75%", "75–100%", "None"),
    ),
    "DS6": (
        "What percentage of the RGB image is obstructed by smoke?",
        ("1–25%", "25–50%", "50–75%", "75–100%", "No smoke"),
    ),
    "DS7": (
        "What percentage of the full scene exceeds 400 degrees Celsius?",
        ("<2%", "2–4%", "4–6%", ">6%", "None"),
    ),
    "DS8": (
        "What percentage of the full scene exceeds 200 degrees Celsius?",
        ("<5%", "5–10%", "10–15%", ">15%", "None"),
    ),
    # Localization and direction
    "LD1": (
        "Where is the most intense hotspot located within the frame?",
        _REGIONS + ("No hotspots",),
    ),
    "LD2": (
        "Where is the densest vegetation located?",
        _REGIONS + ("Uniform", "No vegetation"),
    ),
    "LD3": (
        "From which region of the image does the largest smoke plume originate?",
        _REGIONS + ("Spread", "No smoke"),
    ),
    "LD4": (
        "What is the primary location of the man-made structures?",
        _REGIONS + ("No structures visible",),
    ),
    # Cross-modal reasoning
    "CMR1": (
        "What is the level of tree canopy obstruction of the fire's base?",
        ("Fully obstructed", "Partially obstructed", "Not obstructed", "No fire"),
    ),
    "CMR2": (
        "What is the primary limitation to observing the active burn area in this scene?",
        ("Smoke", "Canopy", "Viewpoint", "No major limitations", "No fire"),
    ),
    "CMR3": (
        "What is the level of smoke obstruction of the fire's base?",
        ("Fully obstructed", "Partially obstructed", "Not obstructed", "No fire"),
    ),
    "CMR4": (
        "What is the temperature of the hottest part of the fire in this scene in degrees Celsius?",
        ("100–200", "200–300", "300–400", "400–500", ">500", "No hotspots"),
    ),
    # Flight planning
    "FP1": (
        "What is the camera's viewing angle?",
        ("Nadir (top-down)", "Oblique (angled)"),
    ),
    "FP2": (
        "What is the estimated flight altitude category?",
        ("0–50 m", "50–100 m", "100–150 m", ">150 m"),
    ),
    "FP3": (
        "What is the current level of safety risk of the UAV's position near flames or smoke?",
        ("High risk", "Medium risk", "Low risk", "No fire"),
    ),
    "FP4": (
        "At the UAV's current flight altitude, which scene feature is the biggest risk to safe or consistent UAV movement?",
        ("Rugged terrain", "Uneven forest", "Smoke columns", "No obstacles"),
    ),
}

#: slots this library answers from sensor data; everything else is external
DETERMINISTIC_IDS = ("PD1", "PD7", "DS1", "DS3", "DS7", "DS8", "LD1", "CMR4", "FP2")

#: binned question id -> lower-inclusive option edges; later options are null options
BIN_EDGES: dict[str, tuple[float, ...]] = {
    "DS7": (2.0, 4.0, 6.0),
    "DS8": (5.0, 10.0, 15.0),
    "CMR4": (200.0, 300.0, 400.0, 500.0),
    "FP2": (50.0, 100.0, 150.0),
}


def choices(question_id: str) -> tuple[str, ...]:
    if question_id not in QUESTIONS:
        raise KeyError(f"unknown question id {question_id!r}")
    return QUESTIONS[question_id][1]


def validate_option(question_id: str, option: str) -> None:
    allowed = choices(question_id)
    if option not in allowed:
        raise ValueError(
            f"{option!r} is not a canonical choice for {question_id}; allowed: {list(allowed)}"
        )


def bin_option(question_id: str, value: float) -> str:
    """Option k + 1 of ``question_id`` from its edge k on; below edge 0, option 0."""
    return choices(question_id)[bisect.bisect_right(BIN_EDGES[question_id], value)]
