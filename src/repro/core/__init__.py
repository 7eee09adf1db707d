"""Public decision-procedure API."""

from .decision import check_validity, decode_countermodel, lift_countermodel
from .result import DecisionStats, SolveOutcome, StageRecord
from .status import Status

__all__ = [
    "check_validity",
    "decode_countermodel",
    "lift_countermodel",
    "DecisionStats",
    "SolveOutcome",
    "StageRecord",
    "Status",
]
