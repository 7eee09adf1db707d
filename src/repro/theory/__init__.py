"""Theory solvers: difference-bound conjunctions and congruence closure."""

from .congruence import CongruenceClosure
from .difference import (
    DifferenceResult,
    DifferenceTheory,
    check_bounds,
)

__all__ = [
    "CongruenceClosure",
    "DifferenceResult",
    "DifferenceTheory",
    "check_bounds",
]
