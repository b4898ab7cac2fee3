"""Keypoint detection, binary description, matching, and RANSAC verification."""

from .brief_pattern import PATTERN, PATTERN_SEED, generate_pattern
from .describe import describe, hamming_distance
from .detect import Keypoint, detect
from .image import GrayImage
from .matching import hamming_matrix, match
from .pipeline import MatchConfig, MatchResult, match_images
from .ransac import DegenerateSamplesError, RansacError, RansacResult, ransac_homography

__all__ = [
    "PATTERN",
    "PATTERN_SEED",
    "generate_pattern",
    "describe",
    "hamming_distance",
    "Keypoint",
    "detect",
    "GrayImage",
    "hamming_matrix",
    "match",
    "MatchConfig",
    "MatchResult",
    "match_images",
    "DegenerateSamplesError",
    "RansacError",
    "RansacResult",
    "ransac_homography",
]
