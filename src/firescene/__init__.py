"""Deterministic wildfire scene analysis from radiometric thermal imagery.

Converts paired thermal rasters and UAV frame metadata into physically
grounded labels (hotspot inventories, spatial-distribution and intensity
classes, coverage and altitude bins, answer sheets). Each answer sheet is
checked against the intra-frame rule that a frame without hotspots answers
every hotspot question with its null option. A pair of frames can be checked
for near-duplication by FAST/BRIEF matching verified with RANSAC. Result
records read and write one JSON form (``records.Record``).
"""

__version__ = "0.1.0"
