"""SatELite-style CNF preprocessing (Eén & Biere, SAT 2005).

The eager pipeline ships Tseitin output straight into the CDCL solver;
this module sits between the two and shrinks the propositional problem
first:

* **top-level unit propagation** to fixpoint (satisfied clauses removed,
  falsified literals stripped, new units cascaded);
* **pure-literal elimination** (a variable occurring in one polarity only
  is satisfiable for free — its clauses are removed);
* **subsumption** over occurrence lists (a clause containing a superset
  of another clause's literals is redundant);
* **self-subsuming resolution** (``(A ∨ l)`` strengthens
  ``(A ∨ B ∨ ¬l)`` to ``(A ∨ B)``);
* **bounded variable elimination** (resolve a variable away when the
  resolvents are no more numerous than the clauses they replace).

Each simplification except (self-)subsumption changes the *model set* of
the formula, so every eliminating step pushes an entry onto a
**reconstruction stack**: the eliminated literal together with the
removed clauses that contained it.  :meth:`PreprocessResult.reconstruct`
replays the stack in reverse over a model of the simplified CNF and
returns a model of the original CNF — which is what lets the pipeline's
countermodel decode (and the fuzzer's countermodel validation) keep
working with preprocessing enabled.

Everything in here — clause db, occurrence lists, signatures, unit
queue, reconstruction stack — operates on **packed literals** (``2v`` /
``2v + 1``, see :mod:`repro.sat.cnf`): clauses come out of the input
arena packed and go into the simplified arena packed, with no signed
round-trip in between.  Negation is ``lit ^ 1`` and the variable is
``lit >> 1`` throughout.

Variable numbering is preserved: the simplified :class:`Cnf` has the same
``num_vars`` and name table as the input, eliminated variables simply no
longer occur in any clause.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
#: Outer simplification rounds (subsume → pure → eliminate → propagate).
DEFAULT_MAX_ROUNDS = 3


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
    """One-shot occurrence-list simplifier over a clause database."""

    def __init__(self, cnf: Cnf) -> None:
        self.cnf = cnf
        self.nvars = cnf.num_vars
        self.stats = PreprocessStats(
            vars_before=cnf.num_vars,
            clauses_before=len(cnf),
            literals_before=cnf.literal_count,
        )
        # clause db (packed lits): None = deleted; occ maps packed
        # literal -> live clause ids
        self.clauses: List[Optional[List[int]]] = []
        self.sigs: List[int] = []
        self.occ: Dict[int, Set[int]] = {}
        self.assignment: Dict[int, bool] = {}
        self.units: deque = deque()
        self.stack: List[Tuple[int, List[List[int]]]] = []
        self.contradiction = False

    # -- clause db plumbing -------------------------------------------------

    @staticmethod
    def _sig(clause: List[int]) -> int:
        sig = 0
        for lit in clause:
            sig |= 1 << ((lit >> 1) & 63)
        return sig

    def _add_clause(self, clause: List[int]) -> None:
        """Insert an already-deduplicated, tautology-free clause."""
        if not clause:
            self.contradiction = True
            return
        if len(clause) == 1:
            self._enqueue(clause[0])
            return
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.sigs.append(self._sig(clause))
        for lit in clause:
            self.occ.setdefault(lit, set()).add(ci)

    def _remove_clause(self, ci: int) -> None:
        clause = self.clauses[ci]
        if clause is None:
            return
        for lit in clause:
            occ = self.occ.get(lit)
            if occ is not None:
                occ.discard(ci)
        self.clauses[ci] = None

    def _strengthen(self, ci: int, lit: int) -> None:
        """Remove ``lit`` from clause ``ci`` (it is falsified or resolved
        away); cascades into the unit queue when one literal remains."""
        clause = self.clauses[ci]
        if clause is None:
            return
        clause.remove(lit)
        occ = self.occ.get(lit)
        if occ is not None:
            occ.discard(ci)
        if not clause:
            self.contradiction = True
            return
        if len(clause) == 1:
            unit = clause[0]
            self._remove_clause(ci)
            self._enqueue(unit)
            return
        self.sigs[ci] = self._sig(clause)

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

    def _propagate(self) -> None:
        while self.units and not self.contradiction:
            lit = self.units.popleft()
            for ci in list(self.occ.get(lit, ())):
                self._remove_clause(ci)
            neg = lit ^ 1
            for ci in list(self.occ.get(neg, ())):
                self._strengthen(ci, neg)

    # -- pure literals ------------------------------------------------------

    def _pure_pass(self) -> bool:
        changed = False
        for var in range(1, self.nvars + 1):
            # Reconstruction replays the stack in reverse, so an entry
            # pushed here must never mention a variable whose unit entry
            # is already on the stack: drain pending units first so
            # their occurrences are gone from the live clause db.
            if self.units:
                self._propagate()
            if self.contradiction:
                break
            if var in self.assignment:
                continue
            pos = self.occ.get(var << 1)
            neg = self.occ.get((var << 1) | 1)
            if pos and not neg:
                lit = var << 1
            elif neg and not pos:
                lit = (var << 1) | 1
            else:
                continue
            removed = [list(self.clauses[ci]) for ci in self.occ[lit]]
            self.stack.append((lit, removed))
            for ci in list(self.occ[lit]):
                self._remove_clause(ci)
            self.stats.pure_literals += 1
            changed = True
        return changed

    # -- subsumption and self-subsuming resolution --------------------------

    def _subsumption_pass(self) -> bool:
        changed = False
        order = sorted(
            (ci for ci, c in enumerate(self.clauses) if c is not None),
            key=lambda ci: len(self.clauses[ci]),
        )
        for ci in order:
            if self.clauses[ci] is None:
                continue
            if self._backward_subsume(ci):
                changed = True
            if self.contradiction:
                break
        return changed

    def _backward_subsume(self, ci: int) -> bool:
        """Remove or strengthen every clause subsumed by clause ``ci``."""
        clause = self.clauses[ci]
        sig = self.sigs[ci]
        length = len(clause)
        # Scan candidates through the least-occurring literal; a clause
        # subsumed (even after one flip) must contain every literal of
        # ``clause`` except possibly one flipped — in particular ``best``
        # or ``best ^ 1``.
        best = min(
            clause,
            key=lambda l: len(self.occ.get(l, ()))
            + len(self.occ.get(l ^ 1, ())),
        )
        candidates = set(self.occ.get(best, ()))
        candidates |= self.occ.get(best ^ 1, set())
        changed = False
        for cj in list(candidates):
            if cj == ci:
                continue
            other = self.clauses[cj]
            if other is None or len(other) < length:
                continue
            if sig & ~self.sigs[cj]:
                continue
            flipped = self._subsumes(clause, other)
            if flipped is None:
                continue
            if flipped == 0:
                self._remove_clause(cj)
                self.stats.clauses_subsumed += 1
            else:
                self._strengthen(cj, flipped)
                self.stats.literals_strengthened += 1
            changed = True
            if self.contradiction:
                break
        return changed

    @staticmethod
    def _subsumes(small: List[int], big: List[int]) -> Optional[int]:
        """``0`` if ``small ⊆ big``; the literal of ``big`` to strike if
        exactly one literal matches flipped (self-subsumption); ``None``
        otherwise.  (Packed literals are never 0, so 0 is a safe
        "plain subsumption" sentinel.)"""
        big_set = set(big)
        flipped = 0
        for lit in small:
            if lit in big_set:
                continue
            if flipped == 0 and lit ^ 1 in big_set:
                flipped = lit ^ 1
                continue
            return None
        return flipped

    # -- bounded variable elimination ---------------------------------------

    def _bve_pass(self) -> bool:
        changed = False
        for var in range(1, self.nvars + 1):
            # Unit resolvents from a previous elimination enqueue but do
            # not propagate; drain them before snapshotting clauses into
            # the reconstruction stack (see _pure_pass).
            if self.units:
                self._propagate()
            if self.contradiction:
                break
            if var in self.assignment:
                continue
            pos = self.occ.get(var << 1)
            neg = self.occ.get((var << 1) | 1)
            if not pos or not neg:
                continue  # absent or pure; not a resolution candidate
            if (
                len(pos) > DEFAULT_BVE_OCC_LIMIT
                or len(neg) > DEFAULT_BVE_OCC_LIMIT
            ):
                continue
            if self._eliminate(var, sorted(pos), sorted(neg)):
                changed = True
        return changed

    def _eliminate(
        self, var: int, pos: List[int], neg: List[int]
    ) -> bool:
        pos_cls = [self.clauses[ci] for ci in pos]
        neg_cls = [self.clauses[ci] for ci in neg]
        limit = DEFAULT_BVE_CLAUSE_LIMIT
        if any(len(c) > limit for c in pos_cls) or any(
            len(c) > limit for c in neg_cls
        ):
            return False
        budget = len(pos) + len(neg)
        plit = var << 1
        resolvents: List[List[int]] = []
        for p in pos_cls:
            pset = set(p)
            for q in neg_cls:
                resolvent = self._resolve(p, pset, q, plit)
                if resolvent is None:
                    continue
                resolvents.append(resolvent)
                if len(resolvents) > budget:
                    return False
        self.stack.append((plit, [list(c) for c in pos_cls]))
        for ci in pos:
            self._remove_clause(ci)
        for ci in neg:
            self._remove_clause(ci)
        for resolvent in resolvents:
            self._add_clause(resolvent)
        self.stats.vars_eliminated += 1
        self.stats.resolvents_added += len(resolvents)
        return True

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
        for lits in self.cnf.iter_packed():
            seen: Set[int] = set()
            deduped: List[int] = []
            tautology = False
            for lit in lits:
                if lit ^ 1 in seen:
                    tautology = True
                    break
                if lit not in seen:
                    seen.add(lit)
                    deduped.append(lit)
            if tautology:
                continue
            self._add_clause(deduped)
            if self.contradiction:
                break
        self._propagate()

        rounds = 0
        while not self.contradiction and rounds < DEFAULT_MAX_ROUNDS:
            rounds += 1
            changed = self._subsumption_pass()
            self._propagate()
            if not self.contradiction:
                changed |= self._pure_pass()
            if not self.contradiction:
                changed |= self._bve_pass()
            self._propagate()
            if not changed:
                break
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


def preprocess_cnf(cnf: Cnf) -> PreprocessResult:
    """Simplify ``cnf``; the input is not mutated.

    Returns a :class:`PreprocessResult` whose ``simplified`` CNF is
    equisatisfiable with the input and whose :meth:`~PreprocessResult.
    reconstruct` maps any model of the simplified CNF back to a model of
    the input.
    """
    return _Preprocessor(cnf).run()
