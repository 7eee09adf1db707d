"""Theory solvers: difference-bound conjunctions and congruence closure."""

from .congruence import CongruenceClosure
from .difference import (
    DifferenceResult,
    DifferenceSolver,
    DifferenceTheory,
    check_bounds,
)

__all__ = [
    "CongruenceClosure",
    "DifferenceResult",
    "DifferenceSolver",
    "DifferenceTheory",
    "check_bounds",
]
