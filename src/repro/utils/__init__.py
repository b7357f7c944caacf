"""Small shared utilities: timers, RNG handling, logging, validation."""

from repro.utils.rng import as_rng
from repro.utils.timing import Timer, timed
from repro.utils.validation import (
    check_node_index,
    check_probability,
    check_positive,
    check_positive_int,
)

__all__ = [
    "Timer",
    "timed",
    "as_rng",
    "check_node_index",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
