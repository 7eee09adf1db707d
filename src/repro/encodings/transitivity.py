"""Transitivity-constraint generation for the per-constraint (EIJ) encoding.

A full assignment to the EIJ Boolean variables asserts one difference bound
per variable (the bound itself, or its integer negation).  The assignment is
theory-consistent iff the asserted bounds contain no negative-weight cycle.
This module generates a propositional formula ``F_trans`` that rules out
*every* negative cycle, by graph-shaped Fourier–Motzkin elimination:

* build the *variable graph* of the class (nodes = symbolic constants,
  edges = pairs related by some bound variable);
* eliminate nodes in min-degree order; when node ``v`` goes, every pair of
  bounds ``a - v <= c1`` and ``v - b <= c2`` yields the implied bound
  ``a - b <= c1 + c2``, adding the chord ``(a, b)`` (this is the chordal
  triangulation the Strichman–Seshia–Bryant CAV'02 procedure performs);
* an implied bound on a *new* (pair, constant) allocates a fresh Boolean
  variable — the paper notes "this process might, in general, result in new
  Boolean variables being generated";
* self-implications ``a - a <= c`` with ``c < 0`` become two-literal
  conflict clauses.

The number of constants per edge can grow multiplicatively — this is the
potentially-exponential blow-up the paper attributes to EIJ.  A budget
caps the work and raises :class:`TransitivityBudgetExceeded`, which the
experiment harness treats the way the paper treats EIJ translation-stage
timeouts.  A deadline does the same for a solve's time limit.

The elimination loops work on signed-int literals: ``+k`` is the ``k``-th
registry variable met, ``-k`` its negation, and the clauses go into a flat
int array.  The clause formulas (``Or`` of the registry literals, with
``Not`` for the negative ones) are built in one pass at the end, so a
class that trips the budget interns none of them.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..logic.terms import Formula, Not, Or, Var
from .sepvars import SepVarRegistry

__all__ = [
    "TransitivityBudgetExceeded",
    "TransitivityStats",
    "generate_transitivity",
    "generate_equality_transitivity",
    "equality_clause_bound",
]

#: Clauses emitted between two looks at the clock when a deadline is set.
_DEADLINE_STRIDE = 1024


class TransitivityBudgetExceeded(Exception):
    """Raised when constraint generation exceeds its clause budget or
    runs past its deadline."""

    def __init__(
        self, clauses: int, budget: Optional[int], timed_out: bool = False
    ):
        if timed_out:
            message = (
                "transitivity generation exceeded the time limit after "
                "%d clauses" % clauses
            )
        else:
            message = (
                "transitivity generation exceeded budget: %d clauses "
                "(budget %d)" % (clauses, budget)
            )
        super().__init__(message)
        self.clauses = clauses
        self.budget = budget


@dataclass
class TransitivityStats:
    clauses: int = 0
    derived_vars: int = 0
    eliminated_nodes: int = 0
    fill_edges: int = 0


class _Limits:
    """The clause budget and the deadline of one generator call.

    A generator calls :meth:`check` each time its cumulative clause
    count reaches the value :meth:`next_check` gave: so the budget is
    checked on the first clause past it, and the clock every
    ``_DEADLINE_STRIDE`` clauses when there is a deadline.
    """

    def __init__(
        self, budget: Optional[int], deadline: Optional[float]
    ) -> None:
        self.budget = budget
        self.deadline = deadline

    def next_check(self, clauses: int) -> float:
        """The clause count at which to call :meth:`check` next."""
        at = math.inf if self.budget is None else self.budget + 1
        if self.deadline is not None:
            at = min(at, clauses + _DEADLINE_STRIDE)
        return at

    def check(self, clauses: int) -> float:
        """Raise when a limit is hit; else return :meth:`next_check`."""
        if self.budget is not None and clauses > self.budget:
            raise TransitivityBudgetExceeded(clauses, self.budget)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise TransitivityBudgetExceeded(
                clauses, self.budget, timed_out=True
            )
        return self.next_check(clauses)


class _IntClauses:
    """The clauses of one generator call, over signed-int literals:
    ``+k`` is the ``k``-th registry variable met, ``-k`` its negation.

    Each clause takes three slots of :attr:`slots`; a two-literal clause
    fills its third with 0.
    """

    def __init__(self) -> None:
        self.slots = array("i")
        self._variables: List[Formula] = []
        self._code_of: Dict[int, int] = {}

    def code(self, literal: Formula) -> int:
        """The int literal of a registry literal (a variable or its ``Not``)."""
        if isinstance(literal, Not):
            return -self._var_code(literal.arg)
        return self._var_code(literal)

    def _var_code(self, var: Formula) -> int:
        k = self._code_of.get(id(var))
        if k is None:
            self._variables.append(var)
            k = self._code_of[id(var)] = len(self._variables)
        return k

    def formulas(self) -> List[Formula]:
        """The ``Or`` formula of each clause, in the order emitted."""
        variables = self._variables
        negated: Dict[int, Formula] = {}
        out: List[Formula] = []
        slots = iter(self.slots)
        for clause in zip(slots, slots, slots):
            literals: List[Formula] = []
            for lit in clause:
                if lit > 0:
                    literals.append(variables[lit - 1])
                elif lit < 0:
                    node = negated.get(lit)
                    if node is None:
                        node = negated[lit] = Not(variables[-lit - 1])
                    literals.append(node)
            out.append(Or(*literals))
        return out


def equality_clause_bound(num_constants: int) -> int:
    """The most clauses :func:`generate_equality_transitivity` can emit
    for a class of ``num_constants`` constants, ``3 * C(n, 3)``.

    It emits three clauses per triangle of the filled graph, and meets
    each vertex triple at most once, because the triple's first
    eliminated vertex leaves the graph.  A class that compares every
    pair reaches the bound.
    """
    n = num_constants
    return n * (n - 1) * (n - 2) // 2


def generate_equality_transitivity(
    registry: SepVarRegistry,
    class_vars: Sequence[Var],
    budget: Optional[int] = None,
    stats: Optional[TransitivityStats] = None,
    deadline: Optional[float] = None,
) -> List[Formula]:
    """Triangle constraints for an *equality-only* class (Bryant–Velev).

    Each pair of compared constants has one Boolean variable; the variable
    graph is chordalised by min-degree elimination, and every triangle of
    the filled graph contributes its three transitivity implications
    ``E_ab ∧ E_bc ⇒ E_ac``.  This is the polynomial subclass the paper's
    Section 3 footnote highlights — no constants, no derived chains.
    ``budget`` and ``deadline`` are as for :func:`generate_transitivity`.
    """
    if stats is None:
        stats = TransitivityStats()
    members: Set[Var] = set(class_vars)

    adjacency: Dict[Var, Set[Var]] = {}
    for x, y in registry.eq_pairs():
        if x not in members or y not in members:
            continue
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    clauses = _IntClauses()
    slots = clauses.slots
    limits = _Limits(budget, deadline)
    check_at = limits.next_check(stats.clauses)

    def eq(x: Var, y: Var) -> int:
        return clauses.code(registry.eq_var(x, y, derived=True))

    remaining = set(adjacency)
    while remaining:
        node = min(remaining, key=lambda v: (len(adjacency[v]), v.uid))
        neighbors = sorted(adjacency[node], key=lambda v: v.uid)
        for i, a in enumerate(neighbors):
            for c in neighbors[i + 1:]:
                if c not in adjacency.get(a, set()):
                    stats.fill_edges += 1
                adjacency.setdefault(a, set()).add(c)
                adjacency.setdefault(c, set()).add(a)
                # Each triangle is met once: it contains ``node``, which
                # leaves the graph below.
                p, q, r = eq(a, node), eq(node, c), eq(a, c)
                slots.extend((-p, -q, r, -p, -r, q, -q, -r, p))
                stats.clauses += 3
                if stats.clauses >= check_at:
                    check_at = limits.check(stats.clauses)
        for a in neighbors:
            adjacency[a].discard(node)
        adjacency[node] = set()
        remaining.discard(node)
        stats.eliminated_nodes += 1

    return clauses.formulas()


def generate_transitivity(
    registry: SepVarRegistry,
    class_vars: Sequence[Var],
    budget: Optional[int] = None,
    stats: Optional[TransitivityStats] = None,
    deadline: Optional[float] = None,
) -> List[Formula]:
    """Generate the transitivity clauses for one EIJ-encoded class.

    Returns a list of clause formulas (disjunctions of registry literals);
    their conjunction is the class's contribution to ``F_trans``.
    ``budget`` caps the cumulative ``stats.clauses``; ``deadline`` is a
    :func:`time.perf_counter` value.  Exceeding either raises
    :class:`TransitivityBudgetExceeded` before any clause formula is
    built.
    """
    if stats is None:
        stats = TransitivityStats()
    members: Set[Var] = set(class_vars)
    clauses = _IntClauses()
    slots = clauses.slots

    # Directed constant tables: (u, v) -> {c: literal asserting u - v <= c}.
    table: Dict[Tuple[Var, Var], Dict[int, int]] = {}
    adjacency: Dict[Var, Set[Var]] = {}

    for x, y in registry.pairs():
        if x not in members or y not in members:
            continue
        fwd = table.setdefault((x, y), {})
        rev = table.setdefault((y, x), {})
        for c in registry.constants(x, y):
            lit = clauses.code(registry.literal(x, y, c))
            fwd[c] = lit
            rev[-c - 1] = -lit
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    # Clauses need no deduplication, as none can repeat: each holds a
    # literal over a pair with the node being eliminated, which later
    # clauses cannot mention; and a directed table maps distinct
    # constants to distinct literals, all of one sign.
    limits = _Limits(budget, deadline)
    check_at = limits.next_check(stats.clauses)

    remaining = set(adjacency)
    while remaining:
        # Min-degree elimination ordering (deterministic tie-break by uid).
        node = min(remaining, key=lambda v: (len(adjacency[v]), v.uid))
        neighbors = sorted(adjacency[node], key=lambda v: v.uid)
        for a in neighbors:
            in_bounds = table.get((a, node), {})
            if not in_bounds:
                continue
            for b in neighbors:
                out_bounds = table.get((node, b), {})
                if not out_bounds:
                    continue
                if a is b:
                    # a -> node -> a : conflict when the cycle is negative.
                    for c1, l1 in in_bounds.items():
                        for c2, l2 in out_bounds.items():
                            if c1 + c2 >= 0 or l1 == -l2:
                                continue  # not negative, or a tautology
                            slots.extend((-l1, -l2, 0))
                            stats.clauses += 1
                            if stats.clauses >= check_at:
                                check_at = limits.check(stats.clauses)
                    continue
                implied = table.setdefault((a, b), {})
                for c1, l1 in in_bounds.items():
                    for c2, l2 in out_bounds.items():
                        c = c1 + c2
                        l3 = implied.get(c)
                        if l3 is None:
                            # First time this bound is implied: allocate
                            # (or reuse) its registry variable now.
                            before = registry.var_count()
                            l3 = clauses.code(
                                registry.literal(a, b, c, derived=True)
                            )
                            if registry.var_count() > before:
                                stats.derived_vars += 1
                            implied[c] = l3
                            table.setdefault((b, a), {})[-c - 1] = -l3
                        slots.extend((-l1, -l2, l3))
                        stats.clauses += 1
                        if stats.clauses >= check_at:
                            check_at = limits.check(stats.clauses)
                if node not in (a, b) and b not in adjacency.get(a, set()):
                    stats.fill_edges += 1
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
        # Remove the node from the graph.
        for a in neighbors:
            adjacency[a].discard(node)
        adjacency[node] = set()
        remaining.discard(node)
        stats.eliminated_nodes += 1

    return clauses.formulas()
