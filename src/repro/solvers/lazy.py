"""Lazy SAT + theory-refinement decision procedure (the CVC baseline).

The Cooperating Validity Checker (Barrett, Dill, Stump; CAV'02) decides SUF
formulas by *lazy* Boolean abstraction:

1. replace every separation predicate with a fresh Boolean variable (no
   transitivity constraints at all);
2. call the SAT solver on the abstraction of ``¬F``;
3. if UNSAT — the formula is valid;
4. if SAT — check the asserted difference bounds with the theory solver;
   if consistent, the formula is invalid and the bounds yield an integer
   countermodel; otherwise add a *conflict clause* built from the
   negative-cycle explanation (the smallest inconsistent literal subset the
   cycle provides) and repeat.

Faithful-to-the-original choices:

* no positive-equality analysis (CVC interprets all constants generally);
* the refinement loop (:func:`refine`) pays a theory check plus a SAT
  (re)start per round — the per-iteration overhead the paper measures
  against (CVC used a customised incremental Chaff; both an incremental
  mode and a restart-from-scratch mode are provided, the latter
  isolating the overhead in the ablation benchmarks);
* conflict clauses are minimal (one negative cycle each), mirroring
  "CVC tries to add conflict clauses that involve the smallest possible
  subset of literals from the satisfying assignment".

The ``lazy`` engine is :func:`~repro.engine.stages.run_eager` over every
class LAZY, with :func:`run_refine` as its ``sat`` stage.  HYBRID's LAZY
classes and incremental sessions get the same conflict clauses without
the loop: their one SAT search checks the bounds as it assigns them
(:class:`~repro.theory.difference.DifferenceTheory`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, MutableMapping, Optional

from ..core.decision import boolvar_model
from ..core.result import StageRecord
from ..encodings.hybrid import Encoding
from ..encodings.sepvars import SepVarRegistry
from ..logic.terms import BoolVar, Formula, Not
from ..sat.cnf import Cnf
from ..sat.solver import UNKNOWN, CdclSolver, SatResult, SatStats
from ..theory.difference import check_bounds

__all__ = ["refine", "run_refine"]


def dimacs_literal(cnf: Cnf, literal: Formula) -> int:
    """Map a registry literal (BoolVar or its negation) to a DIMACS lit."""
    if isinstance(literal, Not):
        return -cnf.var_for(literal.arg)
    return cnf.var_for(literal)


def theory_conflict(
    cnf: Cnf, registry: SepVarRegistry, model: Dict[BoolVar, bool]
) -> List[int]:
    """The CVC loop's theory step on one Boolean model.

    Checks the difference bounds ``model`` asserts with Bellman–Ford.
    When they are inconsistent, returns the clause that blocks the
    negative cycle: the negation of every registry literal on it, as
    DIMACS literals of ``cnf``; when consistent, the empty list.
    """
    cycle = check_bounds(registry.asserted_bounds(model)).cycle or ()
    return [
        -dimacs_literal(cnf, registry.literal(bound.lhs, bound.rhs, bound.c))
        for bound in cycle
    ]


def refine(
    cnf: Cnf,
    registry: SepVarRegistry,
    counters: MutableMapping[str, Any],
    time_limit: Optional[float] = None,
    max_iterations: Optional[int] = None,
    incremental: bool = True,
) -> SatResult:
    """Lazy refinement (the CVC loop): solve, check, block, re-solve.

    Each round solves ``cnf`` with what is left of ``time_limit``
    (seconds from the call), checks the bounds a SAT model asserts
    (:func:`theory_conflict`), and adds the negative cycle's blocking
    clause.  ``incremental`` keeps one solver, so learned clauses carry
    over, as in CVC's customised Chaff; otherwise each round restarts
    from scratch on ``cnf``, to which the clauses are then added.

    Returns the last round's result: UNSAT, SAT with consistent bounds,
    or UNKNOWN when the search, the time limit or ``max_iterations`` ran
    out.  ``counters`` receives ``iterations``, ``theory_checks`` and
    ``conflict_clauses``.
    """
    counters.update(iterations=0, theory_checks=0, conflict_clauses=0)
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    solver: Optional[CdclSolver] = None
    while max_iterations is None or counters["iterations"] < max_iterations:
        remaining = None
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining < 0:
                break
            remaining = max(0.01, remaining)
        counters["iterations"] += 1
        if incremental and solver is not None:
            solver.time_limit = remaining
        else:
            solver = CdclSolver(cnf, time_limit=remaining)
        result = solver.solve()
        if not result.is_sat:
            return result
        counters["theory_checks"] += 1
        clause = theory_conflict(
            cnf, registry, boolvar_model(cnf, result.model)
        )
        if not clause:
            return result
        if incremental:
            solver.add_clause(clause)
        else:
            cnf.add_clause(clause)
        counters["conflict_clauses"] += 1
    stats = solver.stats if solver is not None else SatStats()
    return SatResult(UNKNOWN, stats=stats)


def run_refine(
    cnf: Cnf, request: Any, record: StageRecord, encoding: Encoding
) -> SatResult:
    """:func:`refine` as the ``lazy`` engine's ``sat`` stage (a
    :data:`~repro.engine.stages.SatRunner`): the request's
    ``time_limit`` counts from the stage's start, as for every eager
    search, and its ``max_iterations`` and ``incremental`` options
    (default on) go to the loop."""
    return refine(
        cnf,
        encoding.registry,
        record.counters,
        request.time_limit,
        request.options.get("max_iterations"),
        request.options.get("incremental", True),
    )
