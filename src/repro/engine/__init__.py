"""The pluggable engine layer: every decision procedure, one contract.

* :mod:`repro.engine.contract` — ``SolveRequest`` / ``SolveOutcome``,
  the uniform request/result types that subsume the historical
  per-procedure signatures;
* :mod:`repro.engine.base` — the ``Engine`` protocol;
* :mod:`repro.engine.stages` — the eager pipeline as individually timed
  stages (func-elim → encode → CNF → SAT → decode);
* :mod:`repro.engine.registry` — name → engine resolution for every
  front end (CLI, fuzzer, experiments);
* :mod:`repro.engine.portfolio` — the process-parallel portfolio race
  with first-decided-wins cancellation and the batch API;
* :mod:`repro.engine.session` — incremental assertion-stack sessions
  (``assert_formula`` / ``push`` / ``pop`` / ``check_sat`` /
  ``last_core``) over one long-lived assumption-capable CDCL solver.

Quickstart::

    from repro.engine import registry
    from repro.engine.contract import SolveRequest

    outcome = registry.get("portfolio").decide(formula, time_limit=5.0)
    print(outcome.status, outcome.winner)
"""

from . import registry
from .base import Engine
from .contract import SolveOutcome, SolveRequest
from .portfolio import solve_batch, solve_portfolio
from .session import CheckResult, Session, SessionError
from .stages import run_eager

__all__ = [
    "registry",
    "Engine",
    "SolveRequest",
    "SolveOutcome",
    "solve_portfolio",
    "solve_batch",
    "run_eager",
    "Session",
    "SessionError",
    "CheckResult",
]
