"""The seven built-in engines behind the uniform contract.

Four eager encodings (``sd`` / ``eij`` / ``hybrid`` / ``static``) run the
staged pipeline in :mod:`repro.engine.stages`; the lazy (CVC-style) and
SVC-style baselines and the brute-force oracle are wrapped so their
procedure-specific statistics flow through unchanged while gaining the
same stage-telemetry shape.
"""

from __future__ import annotations

from ..core.result import StageRecord
from ..core.status import Status
from ..solvers.brute import BruteForceLimitExceeded, brute_force_valid
from ..solvers.lazy import check_validity_lazy
from ..solvers.svclike import check_validity_svc
from .base import Engine, EngineCapabilities
from .contract import SolveOutcome, SolveRequest
from .stages import run_eager

__all__ = [
    "EagerEngine",
    "LazyEngine",
    "SvcEngine",
    "BruteEngine",
    "BUILTIN_ENGINES",
]

_EAGER_DESCRIPTIONS = {
    "sd": "eager small-domain (bit-vector) encoding",
    "eij": "eager per-constraint (difference-bound) encoding",
    "hybrid": "the paper's HYBRID encoding (SepCnt-thresholded SD/EIJ)",
    "static": "hybrid with the static per-class heuristic",
}


class EagerEngine(Engine):
    """One eager encoding method run through the staged pipeline."""

    def __init__(self, method: str) -> None:
        self.method = method
        self.name = method
        self.capabilities = EngineCapabilities(
            description=_EAGER_DESCRIPTIONS[method],
            complete=True,
            countermodels=True,
            time_limit=True,
            conflict_limit=True,
        )

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return run_eager(request, method=self.method)


class LazyEngine(Engine):
    """The CVC-style lazy abstraction-refinement baseline."""

    name = "lazy"
    capabilities = EngineCapabilities(
        description="lazy SAT + theory refinement (CVC baseline)",
        complete=True,
        countermodels=True,
        time_limit=True,
    )

    def solve(self, request: SolveRequest) -> SolveOutcome:
        def run(req: SolveRequest) -> SolveOutcome:
            result = check_validity_lazy(
                req.formula,
                max_iterations=req.options.get("max_iterations"),
                time_limit=req.time_limit,
                want_countermodel=req.want_countermodel,
                incremental=req.options.get("incremental", True),
            )
            outcome = SolveOutcome.from_decision_result(self.name, result)
            stats = result.stats
            stats.stages = [
                StageRecord(
                    "encode",
                    stats.encode_seconds,
                    {
                        "dag_suf": stats.dag_size_suf,
                        "dag_sep": stats.dag_size_sep,
                        "vars": stats.cnf_vars,
                        "clauses": stats.cnf_clauses,
                    },
                ),
                StageRecord(
                    "refine",
                    stats.sat_seconds,
                    {
                        "iterations": stats.iterations,
                        "theory_checks": stats.theory_checks,
                        "conflict_clauses": stats.conflict_clauses_added,
                    },
                ),
            ]
            return outcome

        return self._timed(request, run)


class SvcEngine(Engine):
    """The SVC-style structural case-splitting baseline."""

    name = "svc"
    capabilities = EngineCapabilities(
        description="structural case splitting over ground atoms (SVC)",
        complete=True,
        countermodels=True,
        time_limit=True,
    )

    def solve(self, request: SolveRequest) -> SolveOutcome:
        def run(req: SolveRequest) -> SolveOutcome:
            result = check_validity_svc(
                req.formula,
                time_limit=req.time_limit,
                max_splits=req.options.get("max_splits"),
                want_countermodel=req.want_countermodel,
            )
            outcome = SolveOutcome.from_decision_result(self.name, result)
            stats = result.stats
            stats.stages = [
                StageRecord(
                    "flatten",
                    stats.encode_seconds,
                    {
                        "dag_suf": stats.dag_size_suf,
                        "dag_sep": stats.dag_size_sep,
                    },
                ),
                StageRecord(
                    "split",
                    stats.sat_seconds,
                    {
                        "splits": stats.splits,
                        "theory_checks": stats.theory_checks,
                        "pruned": stats.pruned_branches,
                    },
                ),
            ]
            return outcome

        return self._timed(request, run)


class BruteEngine(Engine):
    """The enumeration oracle over the small-model domain.

    Complete only below its enumeration budget (``options["limit"]``,
    default 2,000,000 interpretations); beyond that it answers UNKNOWN
    immediately instead of consuming time, which makes it a cheap
    portfolio member on tiny formulas and a no-op on large ones.
    """

    name = "brute"
    capabilities = EngineCapabilities(
        description="small-model enumeration against the reference semantics",
        complete=False,
        bounded=True,
        countermodels=False,
        time_limit=False,
    )

    DEFAULT_LIMIT = 2_000_000

    def solve(self, request: SolveRequest) -> SolveOutcome:
        def run(req: SolveRequest) -> SolveOutcome:
            limit = req.options.get("limit", self.DEFAULT_LIMIT)
            try:
                valid = brute_force_valid(req.formula, limit=limit)
            except BruteForceLimitExceeded as exc:
                outcome = SolveOutcome(
                    engine=self.name,
                    status=Status.UNKNOWN,
                    detail=str(exc),
                )
            else:
                outcome = SolveOutcome(
                    engine=self.name,
                    status=Status.VALID if valid else Status.INVALID,
                )
            outcome.stats.method = "BRUTE"
            outcome.stats.stages = [
                StageRecord("enumerate", counters={"limit": limit})
            ]
            return outcome

        outcome = self._timed(request, run)
        outcome.stats.stages[0].seconds = outcome.wall_seconds
        outcome.stats.sat_seconds = outcome.wall_seconds
        return outcome


#: Construction order doubles as the default portfolio priority: the
#: paper's HYBRID first, then the other eager encodings, the baselines,
#: and the bounded oracle last.
BUILTIN_ENGINES = (
    lambda: EagerEngine("hybrid"),
    lambda: EagerEngine("static"),
    lambda: EagerEngine("eij"),
    lambda: EagerEngine("sd"),
    LazyEngine,
    SvcEngine,
    BruteEngine,
)
