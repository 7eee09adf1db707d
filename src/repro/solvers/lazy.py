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

The encoding is ``encode_eij(..., transitivity=False)``: every class
LAZY.  HYBRID's LAZY classes and incremental sessions get the same
conflict clauses without the loop: their one SAT search checks the
bounds as it assigns them
(:class:`~repro.theory.difference.DifferenceTheory`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, MutableMapping, Optional, Tuple

from ..core.decision import (
    boolvar_model,
    decode_countermodel,
    lift_countermodel,
)
from ..core.result import DecisionStats, SolveOutcome, StageClock
from ..core.status import Status
from ..encodings.hybrid import encode_eij
from ..encodings.sepvars import SepVarRegistry
from ..logic.terms import BoolVar, Formula, Not
from ..logic.traversal import dag_size
from ..sat.cnf import Cnf
from ..sat.solver import UNKNOWN, CdclSolver, SatResult, SatStats
from ..sat.tseitin import to_cnf
from ..separation.analysis import analyze_separation
from ..theory.difference import DifferenceResult, check_bounds
from ..transform.func_elim import eliminate_applications

__all__ = ["check_validity_lazy", "refine"]


def dimacs_literal(cnf: Cnf, literal: Formula) -> int:
    """Map a registry literal (BoolVar or its negation) to a DIMACS lit."""
    if isinstance(literal, Not):
        return -cnf.var_for(literal.arg)
    return cnf.var_for(literal)


def theory_conflict(
    cnf: Cnf, registry: SepVarRegistry, model: Dict[BoolVar, bool]
) -> Tuple[DifferenceResult, List[int]]:
    """The CVC loop's theory step on one Boolean model.

    Checks the difference bounds ``model`` asserts with Bellman–Ford.
    When they are inconsistent, the second value is the clause that
    blocks the negative cycle: the negation of every registry literal
    on it, as DIMACS literals of ``cnf`` (empty when consistent).
    """
    theory = check_bounds(registry.asserted_bounds(model))
    clause = [
        -dimacs_literal(cnf, registry.literal(bound.lhs, bound.rhs, bound.c))
        for bound in theory.cycle or ()
    ]
    return theory, clause


def refine(
    cnf: Cnf,
    registry: SepVarRegistry,
    counters: MutableMapping[str, Any],
    deadline: Optional[float] = None,
    max_iterations: Optional[int] = None,
    incremental: bool = True,
) -> SatResult:
    """Lazy refinement (the CVC loop): solve, check, block, re-solve.

    Each round solves ``cnf`` with the time left before ``deadline`` (a
    :func:`time.perf_counter` value), checks the bounds a SAT model
    asserts (:func:`theory_conflict`), and adds the negative cycle's
    blocking clause.  ``incremental`` keeps one solver, so learned
    clauses carry over; otherwise each round restarts from scratch on
    ``cnf``, to which the clauses are then added.

    Returns the last round's result: UNSAT, SAT with consistent bounds,
    or UNKNOWN when the search, the deadline or ``max_iterations`` ran
    out.  ``counters`` receives ``iterations``, ``theory_checks`` and
    ``conflict_clauses``.
    """
    counters.update(iterations=0, theory_checks=0, conflict_clauses=0)
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
        theory, clause = theory_conflict(
            cnf, registry, boolvar_model(cnf, result.model)
        )
        if theory.consistent:
            return result
        if incremental:
            solver.add_clause(clause)
        else:
            cnf.add_clause(clause)
        counters["conflict_clauses"] += 1
    stats = solver.stats if solver is not None else SatStats()
    return SatResult(UNKNOWN, stats=stats)


def check_validity_lazy(
    formula: Formula,
    max_iterations: Optional[int] = None,
    time_limit: Optional[float] = None,
    want_countermodel: bool = True,
    incremental: bool = True,
) -> SolveOutcome:
    """Decide SUF validity with the lazy (CVC-style) procedure.

    ``incremental=True`` keeps one SAT solver alive across refinement
    rounds (conflict clauses are added to it and learned clauses carry
    over, as CVC's customised Chaff did); ``incremental=False`` restarts
    the SAT search from scratch every round, which isolates the
    per-iteration overhead the paper measures (see the lazy-vs-eager
    ablation benchmark).

    Stages: ``func-elim``, ``encode`` and ``cnf``, then ``refine``
    (:func:`refine`) with its ``iterations``, ``theory_checks`` and
    ``conflict_clauses`` counters.
    """
    start = time.perf_counter()
    deadline = None if time_limit is None else start + time_limit
    clock = StageClock()
    stats = DecisionStats(method="LAZY", stages=clock.records)

    with clock.stage("func-elim") as rec:
        rec.counters["dag_suf"] = dag_size(formula)
        f_sep, elim_info = eliminate_applications(formula)
        rec.counters["dag_sep"] = dag_size(f_sep)

    with clock.stage("encode") as rec:
        analysis = analyze_separation(f_sep, positive_equality=False)
        encoding = encode_eij(f_sep, analysis=analysis, transitivity=False)
        rec.counters["sep_vars"] = encoding.stats.sep_vars
        rec.counters["trans_clauses"] = encoding.stats.trans_clauses
        rec.counters["sep_count"] = encoding.stats.total_sep_count

    with clock.stage("cnf") as rec:
        cnf = to_cnf(encoding.check_formula)
        rec.counters["vars"] = cnf.num_vars
        rec.counters["clauses"] = len(cnf)

    with clock.stage("refine") as rec:
        result = refine(
            cnf,
            encoding.registry,
            rec.counters,
            deadline=deadline,
            max_iterations=max_iterations,
            incremental=incremental,
        )
    stats.sat = result.stats  # the last round's search stats

    status = Status.UNKNOWN
    if result.is_unsat:
        status = Status.VALID
    elif result.is_sat:
        status = Status.INVALID
    counterexample = None
    if status is Status.INVALID and want_countermodel:
        sep_model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        counterexample = lift_countermodel(elim_info, f_sep, sep_model)
    return SolveOutcome(
        engine="lazy",
        status=status,
        stats=stats,
        counterexample=counterexample,
        wall_seconds=time.perf_counter() - start,
    )
