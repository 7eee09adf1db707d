"""SatELite-style CNF preprocessing (Eén & Biere, SAT 2005).

The eager pipeline ships Tseitin output straight into the CDCL solver;
this module sits between the two and shrinks the propositional problem
first:

* **top-level unit propagation** (satisfied clauses removed, falsified
  literals stripped, new units cascaded);
* **pure-literal elimination** (a variable occurring in one polarity only
  is satisfiable for free — its clauses are removed);
* **subsumption** over occurrence lists (a clause containing a superset
  of another clause's literals is redundant);
* **self-subsuming resolution** (``(A ∨ l)`` strengthens
  ``(A ∨ B ∨ ¬l)`` to ``(A ∨ B)``);
* **bounded variable elimination** (resolve a variable away when the
  resolvents are no more numerous than the clauses they replace).

The rules run to a fixpoint under SatELite's queue discipline, so each
one revisits only what changed since it last ran:

* a clause serves as a **subsumer** — it removes or strengthens the
  clauses it (self-)subsumes, found through its least-occurring
  literal — when it enters the clause db and again whenever it loses a
  literal;
* each **resolvent** still live after the elimination pass that added
  it is checked the other way, against the clauses that could subsume
  or strengthen it (each shares one of its literals);
* a variable is retried for pure-literal and bounded elimination only
  when a clause containing it was added, removed or shortened.

The loop ends: every change removes a clause or a literal without
adding a variable, or removes a variable for good (an elimination, the
one rule that adds clauses), and only a change queues a clause or a
variable.  At the end no clause subsumes or self-subsumes another, no
unfrozen variable is pure, and no unfrozen variable within the two
elimination limits passes the resolvent bound.

Each simplification except (self-)subsumption changes the *model set* of
the formula, so every eliminating step pushes an entry onto a
**reconstruction stack**: the eliminated literal together with the
removed clauses that contained it.  :meth:`PreprocessResult.reconstruct`
replays the stack in reverse over a model of the simplified CNF and
returns a model of the original CNF — which is what lets the pipeline's
countermodel decode (and the fuzzer's countermodel validation) keep
working with preprocessing enabled.

Everything in here — clause db, occurrence lists (a list indexed by
packed literal), signatures, unit queue, reconstruction stack —
operates on **packed literals** (``2v`` / ``2v + 1``, see
:mod:`repro.sat.cnf`): clauses come out of the input arena packed and
go into the simplified arena packed, with no signed round-trip in
between.  Negation is ``lit ^ 1`` and the variable is ``lit >> 1``
throughout.

Variable numbering is preserved: the simplified :class:`Cnf` has the same
``num_vars`` and name table as the input, eliminated variables simply no
longer occur in any clause.

**Frozen variables**, as in MiniSat's ``SimpSolver``: a caller whose
solver will read some variables' values or add clauses over them names
them in ``frozen``.  The eager pipeline freezes the bound variables of
an encoding with LAZY classes: its in-search theory reads every bound a
model asserts and learns conflict clauses over them (no clause is added
between solves any more).  Pure-literal elimination and variable
elimination skip a frozen variable, and one that unit propagation fixes
stays in the simplified CNF as a unit clause, so the solver assigns it
on its trail, where the theory sees it.  (Subsumption and
self-subsuming resolution keep the formula's models, so they need no
exception.)
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .cnf import Cnf

__all__ = ["PreprocessStats", "PreprocessResult", "preprocess_cnf"]

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

#: Skip bounded variable elimination when either polarity of a variable
#: occurs in more clauses than this (quadratic resolvent blow-up guard).
DEFAULT_BVE_OCC_LIMIT = 10
#: Never resolve on clauses longer than this (long resolvents are rarely
#: worth the occurrence-list churn).
DEFAULT_BVE_CLAUSE_LIMIT = 16


@dataclass
class PreprocessStats:
    """Size deltas and per-rule counters for one preprocessing run.

    The eager pipeline copies these into the ``preprocess`` stage's
    :class:`~repro.core.result.StageRecord` counters.
    """

    vars_before: int = 0
    clauses_before: int = 0
    literals_before: int = 0
    vars_after: int = 0
    clauses_after: int = 0
    literals_after: int = 0
    units_fixed: int = 0
    pure_literals: int = 0
    clauses_subsumed: int = 0
    literals_strengthened: int = 0
    vars_eliminated: int = 0
    resolvents_added: int = 0
    #: Clauses taken off the subsumption queue to serve as subsumers.
    clauses_scanned: int = 0
    #: Passes of the driver loop until the queues ran empty.
    rounds: int = 0
    seconds: float = 0.0
    status: str = UNKNOWN


class PreprocessResult:
    """Simplified CNF + the stack that undoes the simplification.

    ``status`` is ``UNSAT`` when preprocessing itself derived the empty
    clause (the simplified CNF then contains ``[]`` so a solver agrees),
    ``SAT`` when every clause was eliminated, ``UNKNOWN`` otherwise.
    """

    def __init__(
        self,
        original: Cnf,
        simplified: Cnf,
        stats: PreprocessStats,
        stack: List[Tuple[int, List[List[int]]]],
    ) -> None:
        self.original = original
        self.simplified = simplified
        self.stats = stats
        #: Reconstruction entries ``(packed_lit, packed_clauses)``.
        self.stack = stack

    @property
    def status(self) -> str:
        return self.stats.status

    def reconstruct(self, model: Dict[int, bool]) -> Dict[int, bool]:
        """Extend a model of the simplified CNF to one of the original.

        ``model`` maps variables to booleans (the solver's vocabulary);
        the stack is replayed last-eliminated-first over it.  Each entry
        is ``(lit, clauses)`` in packed form, where ``clauses`` are the
        removed clauses that contained ``lit``; the invariant (standard
        for variable elimination) is that ``lit`` must be made true iff
        some such clause is not already satisfied by its other literals.
        """
        out = dict(model)
        for lit, clauses in reversed(self.stack):
            lit_true = False
            for clause in clauses:
                satisfied = False
                for other in clause:
                    if other == lit:
                        continue
                    value = out.get(other >> 1, False)
                    if (other & 1 == 0) == value:
                        satisfied = True
                        break
                if not satisfied:
                    lit_true = True
                    break
            out[lit >> 1] = not lit_true if lit & 1 else lit_true
        return out


class _Preprocessor:
    """Queue-driven occurrence-list simplifier over a clause database."""

    def __init__(self, cnf: Cnf, frozen: Iterable[int] = ()) -> None:
        self.cnf = cnf
        self.nvars = cnf.num_vars
        self.frozen = set(frozen)
        self.stats = PreprocessStats(
            vars_before=cnf.num_vars,
            clauses_before=len(cnf),
            literals_before=cnf.literal_count,
        )
        # clause db (packed lits): None = deleted; occ[lit] holds the
        # ids of the live clauses that contain packed literal ``lit``
        self.clauses: List[Optional[List[int]]] = []
        self.sigs: List[int] = []
        self.occ: List[Set[int]] = [set() for _ in range(2 * self.nvars + 2)]
        self.assignment: Dict[int, bool] = {}
        self.units: deque = deque()
        self.stack: List[Tuple[int, List[List[int]]]] = []
        self.contradiction = False
        # Subsumers still to run: clauses that entered the db or lost a
        # literal since they last served as one.
        self.queue: List[int] = []
        self.queued: Set[int] = set()
        # Resolvents not yet checked against the clauses that could
        # subsume or strengthen them.
        self.resolvents: List[int] = []
        # Variables whose occurrence lists changed since their last
        # pure-literal and elimination check.
        self.touched: Set[int] = set()

    # -- clause db plumbing -------------------------------------------------

    @staticmethod
    def _sig(clause: List[int]) -> int:
        sig = 0
        for lit in clause:
            sig |= 1 << ((lit >> 1) & 63)
        return sig

    def _ingest(self) -> None:
        """Load the input clauses; every one is queued as a subsumer and
        every variable is due for its first check."""
        clauses = self.clauses
        sigs = self.sigs
        occ = self.occ
        arena, starts = self.cnf.packed_arrays()
        flat = arena.tolist()
        for start, end in zip(starts, starts[1:]):
            lits = flat[start:end]
            if len(lits) > 1 and len({lit >> 1 for lit in lits}) == len(lits):
                # Fast path: distinct variables, so no duplicate literal
                # and no tautology.
                ci = len(clauses)
                clauses.append(lits)
                sig = 0
                for lit in lits:
                    sig |= 1 << ((lit >> 1) & 63)
                    occ[lit].add(ci)
                sigs.append(sig)
                continue
            seen: Set[int] = set()
            deduped: List[int] = []
            for lit in lits:
                if lit ^ 1 in seen:
                    break  # tautology
                if lit not in seen:
                    seen.add(lit)
                    deduped.append(lit)
            else:
                self._add_clause(deduped)
                if self.contradiction:
                    return
        self.queue = [ci for ci, c in enumerate(clauses) if c is not None]
        self.queued = set(self.queue)
        self.touched = set(range(1, self.nvars + 1))

    def _add_clause(self, clause: List[int]) -> None:
        """Insert a deduplicated, tautology-free clause as a subsumer."""
        if not clause:
            self.contradiction = True
            return
        if len(clause) == 1:
            self._enqueue(clause[0])
            return
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.sigs.append(self._sig(clause))
        occ = self.occ
        touched = self.touched
        for lit in clause:
            occ[lit].add(ci)
            touched.add(lit >> 1)
        self.queue.append(ci)
        self.queued.add(ci)

    def _remove_clause(self, ci: int) -> None:
        clause = self.clauses[ci]
        if clause is None:
            return
        occ = self.occ
        touched = self.touched
        for lit in clause:
            occ[lit].discard(ci)
            touched.add(lit >> 1)
        self.clauses[ci] = None

    def _strengthen(self, ci: int, lit: int) -> None:
        """Remove ``lit`` from clause ``ci`` (it is falsified or resolved
        away); cascades into the unit queue when one literal remains,
        and otherwise queues the shorter clause as a subsumer."""
        clause = self.clauses[ci]
        if clause is None:
            return
        clause.remove(lit)
        self.occ[lit].discard(ci)
        touched = self.touched
        touched.add(lit >> 1)
        if len(clause) == 1:
            unit = clause[0]
            self._remove_clause(ci)
            self._enqueue(unit)
            return
        # A shorter clause may now fit the elimination width limit.
        for other in clause:
            touched.add(other >> 1)
        self.sigs[ci] = self._sig(clause)
        if ci not in self.queued:
            self.queued.add(ci)
            self.queue.append(ci)

    # -- unit propagation ---------------------------------------------------

    def _enqueue(self, lit: int) -> None:
        var = lit >> 1
        want = not (lit & 1)
        current = self.assignment.get(var)
        if current is None:
            self.assignment[var] = want
            self.stack.append((lit, [[lit]]))
            self.stats.units_fixed += 1
            self.units.append(lit)
        elif current != want:
            self.contradiction = True

    def _propagate(self) -> None:  # repro: hot-loop
        units = self.units
        occ = self.occ
        remove_clause = self._remove_clause
        strengthen = self._strengthen
        while units and not self.contradiction:
            lit = units.popleft()
            satisfied = occ[lit]
            while satisfied:
                remove_clause(satisfied.pop())
            neg = lit ^ 1
            falsified = occ[neg]
            while falsified:
                strengthen(falsified.pop(), neg)

    # -- pure literals ------------------------------------------------------

    def _pure_pass(self, variables: List[int]) -> None:
        occ = self.occ
        for var in variables:
            # Reconstruction replays the stack in reverse, so an entry
            # pushed here must never mention a variable whose unit entry
            # is already on the stack: drain pending units first so
            # their occurrences are gone from the live clause db.
            if self.units:
                self._propagate()
            if self.contradiction:
                break
            if var in self.assignment or var in self.frozen:
                continue
            pos = occ[var << 1]
            neg = occ[(var << 1) | 1]
            if pos and not neg:
                lit = var << 1
            elif neg and not pos:
                lit = (var << 1) | 1
            else:
                continue
            removed = [list(self.clauses[ci]) for ci in occ[lit]]
            self.stack.append((lit, removed))
            for ci in list(occ[lit]):
                self._remove_clause(ci)
            self.stats.pure_literals += 1

    # -- subsumption and self-subsuming resolution --------------------------

    def _subsume_queue(self) -> None:
        """Check the new resolvents that survived, then run every queued
        clause as a subsumer, shortest first, until the queue is empty."""
        clauses = self.clauses
        subsumed = strengthened = 0
        for ci in self.resolvents:
            while clauses[ci] is not None and not self.contradiction:
                flipped = self._forward_match(ci)
                if flipped is None:
                    break
                if flipped == 0:
                    self._remove_clause(ci)
                    subsumed += 1
                else:
                    self._strengthen(ci, flipped)
                    strengthened += 1
        self.resolvents = []
        self.stats.clauses_subsumed += subsumed
        self.stats.literals_strengthened += strengthened
        queued = self.queued
        scanned = 0
        while self.queue and not self.contradiction:
            batch = [ci for ci in self.queue if clauses[ci] is not None]
            self.queue = []
            batch.sort(key=lambda ci: len(clauses[ci]))
            for ci in batch:
                queued.discard(ci)
                if clauses[ci] is None:
                    continue
                scanned += 1
                self._backward_subsume(ci)
                if self.contradiction:
                    break
        self.stats.clauses_scanned += scanned

    def _backward_subsume(self, ci: int) -> None:  # repro: hot-loop
        """Remove or strengthen every clause subsumed by clause ``ci``."""
        clauses = self.clauses
        sigs = self.sigs
        occ = self.occ
        clause = clauses[ci]
        sig = sigs[ci]
        length = len(clause)
        # Scan candidates through the least-occurring literal; a clause
        # subsumed (even after one flip) must contain every literal of
        # ``clause`` except possibly one flipped — in particular ``best``
        # or ``best ^ 1``.
        best = clause[0]
        fewest = len(occ[best]) + len(occ[best ^ 1])
        for lit in clause:
            count = len(occ[lit]) + len(occ[lit ^ 1])
            if count < fewest:
                best = lit
                fewest = count
        candidates = list(occ[best])
        candidates.extend(occ[best ^ 1])
        subsumed = strengthened = 0
        for cj in candidates:
            if sig & ~sigs[cj] or cj == ci:
                continue
            other = clauses[cj]
            if other is None or len(other) < length:
                continue
            flipped = self._subsumes(clause, other)
            if flipped is None:
                continue
            if flipped == 0:
                self._remove_clause(cj)
                subsumed += 1
            else:
                self._strengthen(cj, flipped)
                strengthened += 1
        self.stats.clauses_subsumed += subsumed
        self.stats.literals_strengthened += strengthened

    def _forward_match(self, ci: int) -> Optional[int]:  # repro: hot-loop
        """How the first clause found to subsume or self-subsume clause
        ``ci`` acts on it, in :meth:`_subsumes`'s terms, or None.  Such
        a clause shares a literal with ``ci``, so the occurrence lists
        of ``ci``'s literals hold every one."""
        clauses = self.clauses
        sigs = self.sigs
        occ = self.occ
        clause = clauses[ci]
        outside = ~sigs[ci]
        length = len(clause)
        for lit in clause:
            for cj in occ[lit]:
                if sigs[cj] & outside or cj == ci:
                    continue
                other = clauses[cj]
                if len(other) > length:
                    continue
                flipped = self._subsumes(other, clause)
                if flipped is not None:
                    return flipped
        return None

    @staticmethod
    def _subsumes(small: List[int], big: List[int]) -> Optional[int]:
        """``0`` if ``small ⊆ big``; the literal of ``big`` to strike if
        exactly one literal matches flipped (self-subsumption); ``None``
        otherwise.  (Packed literals are never 0, so 0 is a safe "plain
        subsumption" sentinel.)"""
        flipped = 0
        for lit in small:
            if lit in big:
                continue
            if flipped == 0 and lit ^ 1 in big:
                flipped = lit ^ 1
                continue
            return None
        return flipped

    # -- bounded variable elimination ---------------------------------------

    def _bve_pass(self, variables: List[int]) -> None:
        occ = self.occ
        for var in variables:
            # Unit resolvents from a previous elimination enqueue but do
            # not propagate; drain them before snapshotting clauses into
            # the reconstruction stack (see _pure_pass).
            if self.units:
                self._propagate()
            if self.contradiction:
                break
            if var in self.assignment or var in self.frozen:
                continue
            pos = occ[var << 1]
            neg = occ[(var << 1) | 1]
            if not pos or not neg:
                continue  # absent or pure; not a resolution candidate
            if (
                len(pos) > DEFAULT_BVE_OCC_LIMIT
                or len(neg) > DEFAULT_BVE_OCC_LIMIT
            ):
                continue
            self._eliminate(var, sorted(pos), sorted(neg))

    def _eliminate(self, var: int, pos: List[int], neg: List[int]) -> None:
        pos_cls = [self.clauses[ci] for ci in pos]
        neg_cls = [self.clauses[ci] for ci in neg]
        limit = DEFAULT_BVE_CLAUSE_LIMIT
        if max(map(len, pos_cls)) > limit or max(map(len, neg_cls)) > limit:
            return
        plit = var << 1
        budget = len(pos) + len(neg)
        if self._count_resolvents(pos_cls, neg_cls, plit) > budget:
            return
        resolvents: List[List[int]] = []
        for p in pos_cls:
            pset = set(p)
            for q in neg_cls:
                resolvent = self._resolve(p, pset, q, plit)
                if resolvent is not None:
                    resolvents.append(resolvent)
        self.stack.append((plit, [list(c) for c in pos_cls]))
        for ci in pos:
            self._remove_clause(ci)
        for ci in neg:
            self._remove_clause(ci)
        first = len(self.clauses)
        for resolvent in resolvents:
            self._add_clause(resolvent)
        self.resolvents.extend(range(first, len(self.clauses)))
        self.stats.vars_eliminated += 1
        self.stats.resolvents_added += len(resolvents)

    @staticmethod
    def _count_resolvents(  # repro: hot-loop
        pos_cls: List[List[int]], neg_cls: List[List[int]], plit: int
    ) -> int:
        """How many non-tautological resolvents eliminating ``plit``'s
        variable would add (none is built)."""
        nlit = plit | 1
        # A pair is tautological when ``p`` holds the negation of a literal
        # of ``q`` other than the pivot.
        negations = [{lit ^ 1 for lit in q if lit != nlit} for q in neg_cls]
        count = 0
        for p in pos_cls:
            for negated in negations:
                if negated.isdisjoint(p):
                    count += 1
        return count

    @staticmethod
    def _resolve(
        p: List[int], pset: Set[int], q: List[int], plit: int
    ) -> Optional[List[int]]:
        out = [lit for lit in p if lit != plit]
        nlit = plit | 1
        for lit in q:
            if lit == nlit:
                continue
            if lit ^ 1 in pset:
                return None  # tautological resolvent
            if lit not in pset:
                out.append(lit)
        return out

    # -- driver -------------------------------------------------------------

    def run(self) -> PreprocessResult:
        start = time.perf_counter()
        self._ingest()
        self._propagate()
        # Every change removes a variable, a clause or a literal, and
        # only a change queues a clause or touches a variable, so the
        # queues drain and the loop ends at a fixpoint of all rules.
        rounds = 0
        while not self.contradiction and (self.queue or self.touched):
            rounds += 1
            self._subsume_queue()
            self._propagate()
            if self.contradiction:
                break
            variables = sorted(self.touched)
            self.touched.clear()
            self._pure_pass(variables)
            if not self.contradiction:
                self._bve_pass(variables)
            self._propagate()
        self.stats.rounds = rounds
        self.stats.seconds = time.perf_counter() - start
        return self._build_result()

    def _build_result(self) -> PreprocessResult:
        simplified = Cnf()
        simplified.num_vars = self.cnf.num_vars
        simplified.names = dict(self.cnf.names)
        simplified._by_name = dict(self.cnf._by_name)
        if self.contradiction:
            simplified.add_packed_clause([])
            self.stats.status = UNSAT
            live: List[List[int]] = []
        else:
            live = [c for c in self.clauses if c is not None]
            live.extend(
                [(var << 1) | (not value)]
                for var, value in sorted(self.assignment.items())
                if var in self.frozen
            )
            simplified.add_packed_clauses(live)
            self.stats.status = SAT if not live else UNKNOWN
        self.stats.clauses_after = sum(1 for c in live if c)
        self.stats.literals_after = sum(len(c) for c in live)
        occurring: Set[int] = set()
        for clause in live:
            for lit in clause:
                occurring.add(lit >> 1)
        self.stats.vars_after = len(occurring)
        return PreprocessResult(
            self.cnf, simplified, self.stats, self.stack
        )


def preprocess_cnf(cnf: Cnf, frozen: Iterable[int] = ()) -> PreprocessResult:
    """Simplify ``cnf``; the input is not mutated.

    Returns a :class:`PreprocessResult` whose ``simplified`` CNF is
    equisatisfiable with the input and whose :meth:`~PreprocessResult.
    reconstruct` maps any model of the simplified CNF back to a model of
    the input.  Variables in ``frozen`` are never eliminated or
    pure-assigned, and keep a unit clause when fixed, so the two stay
    equisatisfiable after the same clauses over them are added to both.
    """
    return _Preprocessor(cnf, frozen).run()
