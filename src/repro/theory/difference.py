"""Conjunctions of difference bounds: consistency, models, explanations.

A *difference bound* is ``x - y <= c`` over the integers.  A conjunction of
bounds is consistent iff the constraint graph (edge ``y -> x`` with weight
``c`` per bound) has no negative-weight cycle; a satisfying assignment is
read off Bellman–Ford potentials, and an inconsistency is *explained* by
the bounds on a negative cycle.

This is the theory core that

* decodes integer counterexamples from EIJ SAT models,
* drives the lazy (CVC-style) procedure's refinement loop, where the
  negative-cycle explanation becomes a conflict clause,
* checks HYBRID's LAZY classes and incremental sessions' bounds inside
  the SAT search (:class:`DifferenceTheory`, the incremental form of the
  same test), and
* serves as the SVC-style solver's fast conjunction decision (the paper:
  "deciding a conjunction of separation predicates can be reduced to a
  shortest-path problem").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..encodings.sepvars import Bound
from ..logic.terms import Var

__all__ = [
    "DifferenceResult",
    "check_bounds",
    "DifferenceTheory",
]


@dataclass
class DifferenceResult:
    """Outcome of a consistency check.

    ``model`` is present iff consistent; ``cycle`` (a minimal inconsistent
    subset of the input bounds, forming a negative cycle) iff inconsistent.
    """

    consistent: bool
    model: Optional[Dict[Var, int]] = None
    cycle: Optional[List[Bound]] = None


def check_bounds(bounds: Sequence[Bound]) -> DifferenceResult:
    """Bellman–Ford consistency check over a set of difference bounds."""
    nodes: List[Var] = []
    index: Dict[Var, int] = {}
    for bound in bounds:
        for var in (bound.lhs, bound.rhs):
            if var not in index:
                index[var] = len(nodes)
                nodes.append(var)
    n = len(nodes)
    if n == 0:
        return DifferenceResult(consistent=True, model={})

    # Edge per bound x - y <= c: from y to x, weight c.
    edges: List[Tuple[int, int, int, Bound]] = [
        (index[b.rhs], index[b.lhs], b.c, b) for b in bounds
    ]

    # Virtual source = distance 0 to every node (implicit: start dist 0).
    dist = [0] * n
    pred: List[Optional[Tuple[int, Bound]]] = [None] * n

    updated_node = -1
    for _ in range(n):
        updated_node = -1
        for u, v, w, bound in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = (u, bound)
                updated_node = v
        if updated_node == -1:
            break

    if updated_node == -1:
        model = {nodes[i]: dist[i] for i in range(n)}
        return DifferenceResult(consistent=True, model=model)

    # A relaxation succeeded on the n-th pass: walk predecessors to land
    # inside the negative cycle, then collect its bounds.
    node = updated_node
    for _ in range(n):
        node = pred[node][0]
    cycle: List[Bound] = []
    start = node
    while True:
        prev, bound = pred[node]
        cycle.append(bound)
        node = prev
        if node == start:
            break
    cycle.reverse()
    return DifferenceResult(consistent=False, cycle=cycle)


class DifferenceTheory:
    """Difference bounds checked incrementally along a SAT solver's trail.

    The theory that :class:`repro.sat.solver.CdclSolver` consults during
    its search (DPLL(T)).  ``atoms`` maps a CNF variable to the bound its
    true value asserts; false asserts the negation (``y - x <= -c - 1``),
    so every assigned atom is one edge of the constraint graph.  The
    solver hands over its trail at each conflict-free propagation
    fixpoint (:meth:`check`) and its new size at each backtrack
    (:meth:`backtrack`); ``head`` is how much of the trail has been read.

    The checker keeps a potential ``pi`` feasible for the live edges
    (``pi[x] - pi[y] <= c`` for each bound ``x - y <= c``), after Cotton
    and Maler (SAT 2006).  Removing edges keeps it feasible, so a
    backtrack only pops edges, and a new edge that respects it costs
    O(1).  A violating edge relaxes the potential forward from its head;
    reaching the edge's tail means the live edges close a negative cycle
    through it, and :meth:`check` returns that cycle as a theory lemma.
    """

    def __init__(self, num_vars: int, atoms: Mapping[int, Bound]) -> None:
        index: Dict[Var, int] = {}
        size = 2 * (num_vars + 1)
        #: Per packed literal: the edge it asserts (tail -1: no atom).
        self._lit_tail = [-1] * size
        self._lit_head = [0] * size
        self._lit_weight = [0] * size
        for var in sorted(atoms):
            bound = atoms[var]
            for node in (bound.rhs, bound.lhs):
                if node not in index:
                    index[node] = len(index)
            x = index[bound.lhs]
            y = index[bound.rhs]
            # x - y <= c is the edge y -> x; its negation, x -> y.
            self._lit_tail[2 * var] = y
            self._lit_head[2 * var] = x
            self._lit_weight[2 * var] = bound.c
            self._lit_tail[2 * var + 1] = x
            self._lit_head[2 * var + 1] = y
            self._lit_weight[2 * var + 1] = -bound.c - 1
        nodes = len(index)
        self.head = 0
        self._pi = [0] * nodes
        #: Live edges, per tail node, in assertion order.
        self._out_head: List[List[int]] = [[] for _ in range(nodes)]
        self._out_weight: List[List[int]] = [[] for _ in range(nodes)]
        self._out_lit: List[List[int]] = [[] for _ in range(nodes)]
        #: The same edges as a stack: tail node and trail position.
        self._edge_tail: List[int] = []
        self._edge_pos: List[int] = []
        # Relaxation scratch, reused across calls.
        self._pred = [0] * nodes
        self._queued = bytearray(nodes)
        self._queue: List[int] = []
        self._undo_node: List[int] = []
        self._undo_pi: List[int] = []

    def check(self, trail: Sequence[int], size: int) -> Optional[List[int]]:
        """Assert the atoms on ``trail[head:size]`` (packed literals).

        Returns ``None`` when the live bounds stay consistent.  Otherwise
        returns the negations of the literals on a negative cycle, every
        one false under the trail, and leaves ``head`` at the literal
        that closed the cycle (it is not asserted).
        """
        tails = self._lit_tail
        heads = self._lit_head
        weights = self._lit_weight
        pi = self._pi
        out_head = self._out_head
        out_weight = self._out_weight
        out_lit = self._out_lit
        edge_tail = self._edge_tail
        edge_pos = self._edge_pos
        pos = self.head
        while pos < size:
            lit = trail[pos]
            u = tails[lit]
            if u >= 0:
                v = heads[lit]
                w = weights[lit]
                if pi[u] + w < pi[v]:
                    closing = self._relax(u, v, w)
                    if closing >= 0:
                        self.head = pos
                        return self._lemma(lit, closing)
                out_head[u].append(v)
                out_weight[u].append(w)
                out_lit[u].append(lit)
                edge_tail.append(u)
                edge_pos.append(pos)
            pos += 1
        self.head = size
        return None

    def backtrack(self, size: int) -> None:
        """Forget the atoms at trail positions ``size`` and above."""
        if self.head > size:
            self.head = size
        edge_tail = self._edge_tail
        edge_pos = self._edge_pos
        while edge_pos and edge_pos[-1] >= size:
            edge_pos.pop()
            u = edge_tail.pop()
            self._out_head[u].pop()
            self._out_weight[u].pop()
            self._out_lit[u].pop()

    def _relax(self, u: int, v: int, w: int) -> int:  # repro: hot-loop
        """Lower potentials forward from ``v`` for a new edge ``u -> v``.

        Returns -1 when the potential again respects every live edge and
        the new one.  When some edge ``s -> u`` would lower ``u``, the
        live edges close a negative cycle through ``u -> v``: the
        potential is restored and the literal of ``s -> u`` returned;
        ``_pred`` then leads from ``s`` back to ``v``.
        """
        pi = self._pi
        out_head = self._out_head
        out_weight = self._out_weight
        out_lit = self._out_lit
        pred = self._pred
        queued = self._queued
        queue = self._queue
        undo_node = self._undo_node
        undo_pi = self._undo_pi
        undo_node.append(v)
        undo_pi.append(pi[v])
        pi[v] = pi[u] + w
        queue.append(v)
        queued[v] = 1
        closing = -1
        i = 0
        while i < len(queue):
            s = queue[i]
            i += 1
            queued[s] = 0
            base = pi[s]
            for t, wt, lit in zip(out_head[s], out_weight[s], out_lit[s]):
                lowered = base + wt
                if lowered >= pi[t]:
                    continue
                if t == u:
                    closing = lit
                    break
                undo_node.append(t)
                undo_pi.append(pi[t])
                pi[t] = lowered
                pred[t] = lit
                if not queued[t]:
                    queued[t] = 1
                    queue.append(t)
            if closing >= 0:
                break
        if closing >= 0:
            for k in range(len(undo_node) - 1, -1, -1):
                pi[undo_node[k]] = undo_pi[k]
            for k in range(i, len(queue)):
                queued[queue[k]] = 0
        del queue[:]
        del undo_node[:]
        del undo_pi[:]
        return closing

    def _lemma(self, lit: int, closing: int) -> List[int]:
        """The negated literals of the cycle ``lit``, path, ``closing``."""
        tails = self._lit_tail
        start = self._lit_head[lit]
        cycle = [lit, closing]
        node = tails[closing]
        while node != start:
            step = self._pred[node]
            cycle.append(step)
            node = tails[step]
        return [q ^ 1 for q in cycle]
