"""Result and statistics types for the decision procedures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..encodings.hybrid import EncodingStats
from ..logic.semantics import Interpretation
from ..sat.preprocess import PreprocessStats
from ..sat.solver import SatStats
from .status import Status

__all__ = [
    "StageRecord",
    "CacheStats",
    "DecisionStats",
    "DecisionResult",
    "Status",
]


@dataclass
class CacheStats:
    """Result-cache counters for one solve (or an aggregation of many).

    Attached to :class:`DecisionStats` by the ``cached`` engine wrapper
    and the batch dedupe path (:func:`repro.engine.portfolio.solve_batch`)
    so cache behaviour shows up in the same telemetry stream as every
    other stage.
    """

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    dedupes: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def merge(self, other: "CacheStats") -> None:
        self.hits_memory += other.hits_memory
        self.hits_disk += other.hits_disk
        self.misses += other.misses
        self.stores += other.stores
        self.dedupes += other.dedupes


@dataclass
class StageRecord:
    """One pipeline stage's wall time and counters.

    Every engine reports the same record shape (the counters differ), so
    telemetry can be aggregated uniformly across procedures — this is the
    per-stage breakdown behind ``repro check --stats``.
    """

    name: str
    seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: Non-numeric stage outputs threaded to later consumers (e.g. the
    #: ``cnf`` stage's EIJ→CNF-var map for cube-and-conquer splitting).
    #: Excluded from :meth:`describe` — counters are the human surface.
    artifacts: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        parts = "%-10s %8.3fs" % (self.name, self.seconds)
        if self.counters:
            parts += "  " + " ".join(
                "%s=%s" % (key, value)
                for key, value in sorted(self.counters.items())
            )
        return parts


@dataclass
class DecisionStats:
    """Timing and size measurements for one validity check.

    ``encode_seconds`` covers everything up to and including CNF
    generation (the paper's "time taken to translate the formula to a
    Boolean formula"); ``sat_seconds`` is the SAT search.  Their sum is the
    paper's "total time".  ``stages`` is the finer-grained uniform
    telemetry recorded by the engine layer (func-elim → encode → CNF →
    SAT → decode for the eager pipeline).
    """

    method: str = ""
    dag_size_suf: int = 0
    dag_size_sep: int = 0
    encode_seconds: float = 0.0
    sat_seconds: float = 0.0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    encoding: Optional[EncodingStats] = None
    preprocess: Optional[PreprocessStats] = None
    sat: Optional[SatStats] = None
    cache: Optional[CacheStats] = None
    stages: List[StageRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.encode_seconds + self.sat_seconds

    @property
    def conflict_clauses(self) -> int:
        """The paper's Figure-2 metric: conflict clauses added by the SAT
        solver."""
        return self.sat.learned_clauses if self.sat else 0

    @property
    def sep_predicates(self) -> int:
        """SepCnt summed over classes — the paper's Figure-3 x-axis."""
        return self.encoding.total_sep_count if self.encoding else 0

    def normalized_seconds(self) -> float:
        """Total time per thousand SUF DAG nodes (Figure 3's y-axis)."""
        knodes = max(self.dag_size_suf, 1) / 1000.0
        return self.total_seconds / knodes


@dataclass
class DecisionResult:
    """Outcome of :func:`repro.core.decision.check_validity`."""

    # String-compatible class constants, kept for backward compatibility
    # (``result.status == DecisionResult.VALID`` and ``== "VALID"`` both
    # keep working; see :class:`repro.core.status.Status`).
    VALID = Status.VALID
    INVALID = Status.INVALID
    UNKNOWN = Status.UNKNOWN
    TRANSLATION_LIMIT = Status.TRANSLATION_LIMIT

    status: Status
    stats: DecisionStats = field(default_factory=DecisionStats)
    counterexample: Optional[Interpretation] = None
    detail: str = ""

    @property
    def valid(self) -> Optional[bool]:
        """True / False when decided, ``None`` when a limit was hit."""
        if self.status == self.VALID:
            return True
        if self.status == self.INVALID:
            return False
        return None

    def __repr__(self) -> str:
        return "DecisionResult(status=%s, method=%s, total=%.3fs)" % (
            self.status,
            self.stats.method,
            self.stats.total_seconds,
        )
