"""Result and statistics types for the decision procedures.

Every engine returns one :class:`SolveOutcome`; its ``stats.stages``
list of :class:`StageRecord` entries is the only place a solve's times
and sizes are written.  The paper's figures (translation time, SAT
time, CNF size, SepCnt) are derived from those records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional

from ..logic.semantics import Interpretation
from ..sat.solver import SatStats
from .status import Status

__all__ = [
    "StageRecord",
    "StageClock",
    "CacheStats",
    "DecisionStats",
    "SolveOutcome",
    "FRONT_END_STAGES",
    "SEARCH_STAGES",
    "Status",
]

#: Stages whose seconds count as translation time (the paper's "time
#: taken to translate the formula to a Boolean formula").
FRONT_END_STAGES: FrozenSet[str] = frozenset(
    ("func-elim", "encode", "cnf", "preprocess", "flatten")
)
#: Stages whose seconds count as search time.  ``decode``, ``race`` and
#: ``cache`` count in neither set; only ``wall_seconds`` covers them.
SEARCH_STAGES: FrozenSet[str] = frozenset(
    ("sat", "refine", "split", "enumerate")
)


@dataclass
class CacheStats:
    """Result-cache counters for one solve (or an aggregation of many).

    Attached to :class:`DecisionStats` by the result cache
    (:func:`repro.service.cache.solve_cached`, behind the ``cached``
    engine and ``repro serve``) so cache behaviour shows up in the same
    telemetry stream as every other stage.
    """

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    def merge(self, other: "CacheStats") -> None:
        self.hits_memory += other.hits_memory
        self.hits_disk += other.hits_disk
        self.misses += other.misses
        self.stores += other.stores


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


class StageClock:
    """Collects :class:`StageRecord` entries with wall-clock timing.

    Use as ``with clock.stage("encode") as rec: ...``; counters added to
    ``rec.counters`` inside the block are kept, the elapsed time is
    stamped on exit (also on exceptions, so failed stages still report
    how long they ran).
    """

    def __init__(self) -> None:
        self.records: List[StageRecord] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[StageRecord]:
        record = StageRecord(name=name)
        self.records.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - start


@dataclass
class DecisionStats:
    """Statistics for one validity check, derived from its stages.

    ``stages`` is the per-stage telemetry every engine records (func-elim
    → encode → CNF → preprocess → SAT → decode for the eager pipeline).
    ``encode_seconds`` sums the front-end stages (the paper's translation
    time), ``sat_seconds`` the search stages; their sum is the paper's
    "total time".  ``sat`` keeps the SAT solver's own counters and
    ``cache`` the result-cache counters.
    """

    method: str = ""
    sat: Optional[SatStats] = None
    cache: Optional[CacheStats] = None
    stages: List[StageRecord] = field(default_factory=list)

    def counter(self, stage: str, key: str) -> int:
        """Counter ``key`` of the first stage named ``stage`` (0 if absent),
        e.g. ``counter("cnf", "clauses")`` or ``counter("func-elim",
        "dag_suf")``."""
        for record in self.stages:
            if record.name == stage:
                return record.counters.get(key, 0)
        return 0

    def _seconds(self, names: FrozenSet[str]) -> float:
        return sum(r.seconds for r in self.stages if r.name in names)

    @property
    def encode_seconds(self) -> float:
        return self._seconds(FRONT_END_STAGES)

    @property
    def sat_seconds(self) -> float:
        return self._seconds(SEARCH_STAGES)

    @property
    def total_seconds(self) -> float:
        return self.encode_seconds + self.sat_seconds

    @property
    def conflict_clauses(self) -> int:
        """The paper's Figure-2 metric: conflict clauses added by the SAT
        solver (the ``sat`` stage's ``learned`` counter)."""
        return self.counter("sat", "learned")

    @property
    def sep_predicates(self) -> int:
        """SepCnt summed over classes — the paper's Figure-3 x-axis."""
        return self.counter("encode", "sep_count")

    def normalized_seconds(self) -> float:
        """Total time per thousand SUF DAG nodes (Figure 3's y-axis)."""
        knodes = max(self.counter("func-elim", "dag_suf"), 1) / 1000.0
        return self.total_seconds / knodes


@dataclass
class SolveOutcome:
    """What every engine returns.

    ``engine`` is the registry name that produced the outcome; for the
    portfolio it is ``"portfolio"`` and ``winner`` names the member whose
    verdict was adopted.  ``wall_seconds`` is the whole solve, including
    stages that count as neither translation nor search (decode, race,
    cache); ``stats.stages`` holds the per-stage telemetry.
    """

    engine: str
    status: Status
    stats: DecisionStats = field(default_factory=DecisionStats)
    counterexample: Optional[Interpretation] = None
    detail: str = ""
    wall_seconds: float = 0.0
    winner: Optional[str] = None

    @property
    def valid(self) -> Optional[bool]:
        """True / False when decided, ``None`` otherwise."""
        return Status(self.status).as_valid

    @property
    def decided(self) -> bool:
        return self.valid is not None

    @property
    def stages(self) -> List[StageRecord]:
        return self.stats.stages
