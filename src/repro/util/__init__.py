"""Shared small utilities: argument validation, deterministic RNG and the
canonical digest."""

from repro.util.digest import canonical_digest, canonical_json
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)
from repro.util.rng import RandomSource, spawn_rng

__all__ = [
    "RandomSource",
    "canonical_digest",
    "canonical_json",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
    "spawn_rng",
]
