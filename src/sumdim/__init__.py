"""Exact dyadic laboratory for digit-pattern sets and their iterated sums.

The package models compact subsets of [0, 1] whose binary expansions are
constrained position by position (each digit forced to 0 or free),
counts the dyadic cells met by iterated sumsets of such sets with
certified lower/upper brackets, and checks finite-scale analogues of the
classical sumset inequalities.  Everything is integer arithmetic on digit
masks; no floating point enters a count.

The names below are the library API the README documents; everything
else stays importable from its module.
"""

from .analysis import count_trace, off_trace, predicted_exponent
from .constructions import (
    DimensionTargets,
    build_canonical,
    build_example,
    interleave,
    make_scale_sequence,
    validate_targets,
)
from .engine import brute_force_oracle, sum_prefix_counts
from .patterns import SetSpec, dumps, loads
from .plunnecke import cover_suite, prop31_suite, ruzsa_suite

__version__ = "0.1.0"

__all__ = [
    "DimensionTargets",
    "SetSpec",
    "brute_force_oracle",
    "build_canonical",
    "build_example",
    "count_trace",
    "cover_suite",
    "dumps",
    "interleave",
    "loads",
    "make_scale_sequence",
    "off_trace",
    "predicted_exponent",
    "prop31_suite",
    "ruzsa_suite",
    "sum_prefix_counts",
    "validate_targets",
    "__version__",
]
