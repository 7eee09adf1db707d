"""Structural case-splitting validity checker (the SVC baseline).

The Stanford Validity Checker decides formulas by recursive case analysis
on atomic formulas, backed by an arithmetic core; for separation predicates
"deciding a conjunction ... can be reduced to a shortest-path problem"
(paper §5).  This reimplementation keeps those characteristics:

* the formula is first flattened to a Boolean combination of *ground*
  separation atoms (ITEs eliminated by guard expansion);
* the solver picks an unresolved atom, splits on it, and simplifies the
  formula three-valuedly under the partial assignment;
* each asserted literal adds difference bounds to a stack-based theory
  context checked by Bellman–Ford; inconsistent contexts prune the branch;
* a branch whose formula simplifies to *false* with a consistent context
  is a countermodel — the formula is invalid;
* negated equalities split into the two strict orderings (``x < y`` /
  ``y < x``), as case-splitting provers do.

Conjunction-dominated formulas are decided after a handful of splits (the
simplification assigns most atoms by unit pressure), while
disjunction-heavy formulas trigger the exponential case enumeration the
paper observed — "for larger formulas involving several disjunctions,
SVC's run-time quickly blows up".

Like the original (which interprets functions over the rationals and was
not run on integer-density-dependent benchmarks), this solver does **not**
use the positive-equality optimisation; uninterpreted functions are
removed by the shared elimination pass.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.decision import lift_countermodel
from ..core.result import DecisionStats, SolveOutcome, StageClock
from ..core.status import Status
from ..encodings.sepvars import Bound
from ..logic.terms import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    FALSE,
    Formula,
    Iff,
    Implies,
    Lt,
    Not,
    Or,
    TRUE,
)
from ..logic.traversal import dag_size, iter_dag, postorder
from ..logic.semantics import Interpretation
from ..theory.difference import check_bounds
from ..transform.func_elim import eliminate_applications
from ..transform.ground import enumerate_leaf_paths, split_ground

__all__ = ["check_validity_svc"]


class _Limits:
    def __init__(self, time_limit, max_splits, start):
        self.time_limit = time_limit
        self.max_splits = max_splits
        self.start = start
        self.exhausted = False


def _flatten_ites(f_sep: Formula) -> Formula:
    """Rewrite every atom into a guard-expanded Boolean combination of
    ground atoms (the pre-processing SVC's atom-level case split needs)."""
    from ..transform.ground import push_offsets

    pushed = push_offsets(f_sep)
    memo: Dict[Formula, Formula] = {}
    for node in postorder(pushed):
        if node in memo or not isinstance(node, Formula):
            continue
        if isinstance(node, (BoolConst, BoolVar)):
            memo[node] = node
        elif isinstance(node, Not):
            memo[node] = Not(memo[node.arg])
        elif isinstance(node, And):
            memo[node] = And(*[memo[a] for a in node.args])
        elif isinstance(node, Or):
            memo[node] = Or(*[memo[a] for a in node.args])
        elif isinstance(node, Implies):
            memo[node] = Implies(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, Iff):
            memo[node] = Iff(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, (Eq, Lt)):
            memo[node] = _expand_atom(node, memo)
        else:
            raise TypeError("unknown formula kind: %r" % (type(node),))
    return memo[pushed]


def _expand_atom(atom: Formula, memo: Dict[Formula, Formula]) -> Formula:
    is_eq = isinstance(atom, Eq)
    disjuncts: List[Formula] = []
    for path1, g1 in enumerate_leaf_paths(atom.lhs):
        guard1 = [
            memo[c] if pol else Not(memo[c]) for c, pol in path1
        ]
        for path2, g2 in enumerate_leaf_paths(atom.rhs):
            guard2 = [
                memo[c] if pol else Not(memo[c]) for c, pol in path2
            ]
            ground = Eq(g1, g2) if is_eq else Lt(g1, g2)
            disjuncts.append(And(*(guard1 + guard2 + [ground])))
    return Or(*disjuncts)


def _pick_atom(formula: Formula, assignment: Dict[Formula, bool]):
    """First unassigned atom or Boolean constant symbol, in DAG order."""
    candidates = [
        n
        for n in iter_dag(formula)
        if isinstance(n, (Eq, Lt, BoolVar)) and n not in assignment
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda n: n.uid)


def _simplify(formula: Formula, assignment: Dict[Formula, bool]) -> Formula:
    memo: Dict[Formula, Formula] = {}
    for node in postorder(formula):
        if not isinstance(node, Formula) or node in memo:
            continue
        if isinstance(node, (Eq, Lt, BoolVar)):
            if node in assignment:
                memo[node] = TRUE if assignment[node] else FALSE
            else:
                memo[node] = node
        elif isinstance(node, BoolConst):
            memo[node] = node
        elif isinstance(node, Not):
            memo[node] = Not(memo[node.arg])
        elif isinstance(node, And):
            memo[node] = And(*[memo[a] for a in node.args])
        elif isinstance(node, Or):
            memo[node] = Or(*[memo[a] for a in node.args])
        elif isinstance(node, Implies):
            memo[node] = Implies(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, Iff):
            memo[node] = Iff(memo[node.lhs], memo[node.rhs])
        else:
            raise TypeError("unknown formula kind: %r" % (type(node),))
    return memo[formula]


def _atom_bounds(atom: Formula, value: bool) -> List[List[Bound]]:
    """Bound alternatives asserted by an atom literal.

    Returns a list of alternatives (disjunction); each alternative is a
    conjunction of bounds.  Negated equalities yield two alternatives —
    the case split SVC performs on disequalities.
    """
    x, k1 = split_ground(atom.lhs)
    y, k2 = split_ground(atom.rhs)
    if isinstance(atom, Eq):
        c = k2 - k1
        if value:
            return [[Bound(x, y, c), Bound(y, x, -c)]]
        return [[Bound(x, y, c - 1)], [Bound(y, x, -c - 1)]]
    c = k2 - k1
    if value:
        return [[Bound(x, y, c - 1)]]
    return [[Bound(y, x, -c)]]


def check_validity_svc(
    formula: Formula,
    time_limit: Optional[float] = None,
    max_splits: Optional[int] = None,
    want_countermodel: bool = True,
) -> SolveOutcome:
    """Decide SUF validity with recursive case splitting (SVC-style).

    Stages: ``func-elim`` and ``flatten``, then ``split`` with the
    search's ``splits``, ``theory_checks`` and ``pruned`` counters.
    """
    start = time.perf_counter()
    clock = StageClock()
    stats = DecisionStats(method="SVC", stages=clock.records)

    with clock.stage("func-elim") as rec:
        rec.counters["dag_suf"] = dag_size(formula)
        f_sep, elim_info = eliminate_applications(formula)
        rec.counters["dag_sep"] = dag_size(f_sep)

    with clock.stage("flatten"):
        flat = _flatten_ites(f_sep)

    limits = _Limits(time_limit, max_splits, start)
    with clock.stage("split") as rec:
        rec.counters.update(splits=0, theory_checks=0, pruned=0)
        found = _search(flat, {}, [], rec.counters, limits)

    counterexample = None
    if limits.exhausted:
        status = Status.UNKNOWN
    elif found is None:
        status = Status.VALID
    else:
        status = Status.INVALID
        if want_countermodel:
            assignment, bounds = found
            sep_model = _build_countermodel(f_sep, assignment, bounds)
            counterexample = lift_countermodel(elim_info, f_sep, sep_model)
    return SolveOutcome(
        engine="svc",
        status=status,
        stats=stats,
        counterexample=counterexample,
        wall_seconds=time.perf_counter() - start,
    )


def _search(
    formula: Formula,
    assignment: Dict[Formula, bool],
    bounds: List[Bound],
    counters: Dict[str, int],
    limits: _Limits,
) -> Optional[Tuple[Dict[Formula, bool], List[Bound]]]:
    """Find an assignment falsifying ``formula`` with a consistent theory
    context; ``None`` when every branch is pruned or evaluates true.
    ``counters`` is the ``split`` stage's (splits, theory checks and
    pruned branches)."""
    if limits.exhausted:
        return None
    if (
        limits.time_limit is not None
        and time.perf_counter() - limits.start > limits.time_limit
    ) or (
        limits.max_splits is not None
        and counters["splits"] > limits.max_splits
    ):
        limits.exhausted = True
        return None

    simplified = _simplify(formula, assignment)
    if simplified is TRUE:
        return None  # this branch satisfies the formula: no countermodel here
    if simplified is FALSE:
        return (dict(assignment), list(bounds))

    atom = _pick_atom(simplified, assignment)
    if atom is None:
        raise AssertionError("non-constant formula with no atoms")

    for value in (False, True):
        counters["splits"] += 1
        assignment[atom] = value
        if isinstance(atom, BoolVar):
            alternatives: List[List[Bound]] = [[]]
        else:
            alternatives = _atom_bounds(atom, value)
        for extra in alternatives:
            candidate = bounds + extra
            counters["theory_checks"] += 1
            if not check_bounds(candidate).consistent:
                counters["pruned"] += 1
                continue
            result = _search(formula, assignment, candidate, counters, limits)
            if result is not None:
                del assignment[atom]
                return result
        del assignment[atom]
    return None


def _build_countermodel(
    f_sep: Formula,
    assignment: Dict[Formula, bool],
    bounds: List[Bound],
) -> Interpretation:
    from ..logic.traversal import collect_bool_vars, collect_vars

    theory = check_bounds(bounds)
    values = {
        var: theory.model.get(var, 0) if theory.model else 0
        for var in collect_vars(f_sep)
    }
    bools = {
        bv: assignment.get(bv, False) for bv in collect_bool_vars(f_sep)
    }
    return Interpretation(
        vars={v.name: value for v, value in values.items()},
        bools={bv.name: value for bv, value in bools.items()},
    )
