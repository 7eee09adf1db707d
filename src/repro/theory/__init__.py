"""Theory core: integer difference-bound conjunctions, checked whole
(Bellman–Ford) or incrementally inside the SAT search."""

from .difference import (
    DifferenceResult,
    DifferenceTheory,
    check_bounds,
)

__all__ = [
    "DifferenceResult",
    "DifferenceTheory",
    "check_bounds",
]
