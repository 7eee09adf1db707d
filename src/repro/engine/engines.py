"""The seven built-in engines behind the uniform contract.

Four eager encodings (``sd`` / ``eij`` / ``hybrid`` / ``static``) and the
lazy (CVC-style) baseline run the staged pipeline in
:mod:`repro.engine.stages`; the SVC-style baseline records its own stages
while it runs, and the brute-force oracle records one ``enumerate`` stage.
"""

from __future__ import annotations

import dataclasses
import time

from ..core.result import DecisionStats, StageClock
from ..core.status import Status
from ..solvers.brute import BruteForceLimitExceeded, brute_force_valid
from ..solvers.lazy import run_refine
from ..solvers.svclike import check_validity_svc
from .base import Engine
from .contract import SolveOutcome, SolveRequest
from .stages import run_eager

__all__ = [
    "EagerEngine",
    "LazyEngine",
    "SvcEngine",
    "BruteEngine",
    "BUILTIN_ENGINES",
]


class EagerEngine(Engine):
    """One eager encoding method run through the staged pipeline."""

    def __init__(self, method: str) -> None:
        self.method = method
        self.name = method

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return run_eager(request, method=self.method)


class LazyEngine(Engine):
    """The CVC-style lazy abstraction-refinement baseline: the eager
    pipeline over every class LAZY, with the loop as its ``sat`` stage.
    Preprocessing stays off; it would close small formulas before the
    loop, whose rounds are what the paper measures."""

    name = "lazy"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return run_eager(
            dataclasses.replace(request, preprocess=False),
            method="lazy",
            sat_runner=run_refine,
        )


class SvcEngine(Engine):
    """The SVC-style structural case-splitting baseline."""

    name = "svc"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return check_validity_svc(
            request.formula,
            time_limit=request.time_limit,
            max_splits=request.options.get("max_splits"),
            want_countermodel=request.want_countermodel,
        )


class BruteEngine(Engine):
    """The enumeration oracle over the small-model domain.

    Complete only below its enumeration budget (``options["limit"]``,
    default 2,000,000 interpretations); beyond that it answers UNKNOWN
    immediately instead of consuming time, which makes it a cheap
    portfolio member on tiny formulas and a no-op on large ones.  It is
    the one built-in engine that returns no countermodel.
    """

    name = "brute"

    DEFAULT_LIMIT = 2_000_000

    def solve(self, request: SolveRequest) -> SolveOutcome:
        start = time.perf_counter()
        limit = request.options.get("limit", self.DEFAULT_LIMIT)
        clock = StageClock()
        outcome = SolveOutcome(
            engine=self.name,
            status=Status.UNKNOWN,
            stats=DecisionStats(method="BRUTE", stages=clock.records),
        )
        with clock.stage("enumerate") as rec:
            rec.counters["limit"] = limit
            try:
                valid = brute_force_valid(request.formula, limit=limit)
            except BruteForceLimitExceeded as exc:
                outcome.detail = str(exc)
            else:
                outcome.status = Status.VALID if valid else Status.INVALID
        outcome.wall_seconds = time.perf_counter() - start
        return outcome


#: Construction order doubles as the default portfolio priority and the
#: order in which a race starts its members: the paper's HYBRID first,
#: then the CVC baseline, which encodes no transitivity, so it decides
#: what a tripped transitivity budget leaves undecided (the invariant
#: family under the paper's rule alone); then the other eager
#: encodings, which mostly decide what HYBRID decides, the SVC
#: baseline, and the bounded oracle last.
BUILTIN_ENGINES = (
    lambda: EagerEngine("hybrid"),
    LazyEngine,
    lambda: EagerEngine("static"),
    lambda: EagerEngine("eij"),
    lambda: EagerEngine("sd"),
    SvcEngine,
    BruteEngine,
)
