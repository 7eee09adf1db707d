"""The frozen pre-arena CDCL solver, kept as a differential reference.

This is the object-per-clause solver exactly as it shipped before the
arena refactor (PR 7): signed literals, one ``_Clause`` object per
clause, tuple-based watcher lists.  It is **not** used by the engine —
:mod:`repro.sat.solver` is the production solver.  It exists so
that ``tests/test_solver_arena.py`` can check the arena solver
verdict-for-verdict and model-for-model against the old implementation.

Do not optimise or extend this module; fixes only if a soundness bug is
found in both solvers.  It consumes the signed ``Cnf.clauses`` view, so
it keeps working on top of the packed CNF container.

The solver implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimisation,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* geometric learned-clause database reduction.

It also exposes the counters the paper's Figure 2 reports — CNF clause
count, *conflict (learned) clause* count, decisions, propagations — so the
SD-vs-EIJ search-behaviour comparison can be reproduced measurement for
measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cnf import Cnf

__all__ = ["SatStats", "SatResult", "CdclSolver", "solve_cnf"]

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class SatStats:
    """Search statistics for one :meth:`CdclSolver.solve` call."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    original_clauses: int = 0
    deleted_clauses: int = 0
    time_seconds: float = 0.0


@dataclass
class SatResult:
    """Outcome of one solve call.

    ``core`` is populated on UNSAT results from
    :meth:`CdclSolver.solve_under_assumptions`: a subset of the passed
    assumption literals such that the clause database conjoined with
    exactly those literals is unsatisfiable.  An empty core means the
    clause database is unsatisfiable on its own.
    """

    status: str
    model: Optional[Dict[int, bool]] = None
    stats: SatStats = field(default_factory=SatStats)
    core: Optional[List[int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


class _Clause:
    __slots__ = ("lits", "learned", "activity", "lbd")

    def __init__(self, lits: List[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.lbd = 0  # literal-block distance, stamped at learn time


def _luby(i: int) -> int:
    """The Luby restart sequence 1 1 2 1 1 2 4 ... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class CdclSolver:
    """Conflict-driven clause learning over a :class:`Cnf`.

    Parameters
    ----------
    cnf:
        The input formula.  The solver keeps its own clause objects; the
        input is not mutated.
    max_conflicts:
        Abort with ``UNKNOWN`` after this many conflicts (``None`` = off).
    time_limit:
        Abort with ``UNKNOWN`` after this many seconds (``None`` = off).
    """

    RESTART_BASE = 128
    VAR_DECAY = 0.95
    CLAUSE_DECAY = 0.999
    #: Learned clauses with LBD at or below this are never deleted
    #: ("glue" clauses in Glucose terminology).
    GLUE_LBD = 3

    def __init__(
        self,
        cnf: Cnf,
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.nvars = cnf.num_vars
        self.max_conflicts = max_conflicts
        self.time_limit = time_limit
        self.stats = SatStats(original_clauses=len(cnf))

        n = self.nvars + 1
        self.values: List[int] = [0] * n  # 0 unassigned, 1 true, -1 false
        self.levels: List[int] = [0] * n
        self.reasons: List[Optional[_Clause]] = [None] * n
        self.activity: List[float] = [0.0] * n
        self.phase: List[int] = [-1] * n  # saved polarity
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.cla_inc = 1.0

        # watches indexed by literal key: pos lit v -> 2v, neg lit v -> 2v+1.
        # Each entry is a (blocker, clause) pair: the blocker is the other
        # watched literal at registration time, and a true blocker lets
        # propagation skip the clause without touching its literal list.
        self.watches: List[List[tuple]] = [[] for _ in range(2 * n)]
        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self._ok = True
        self._units: List[int] = []
        self._heap: List = []

        for lits in cnf.clauses:
            self._add_original(lits)

    # -- clause plumbing ----------------------------------------------------

    @staticmethod
    def _key(lit: int) -> int:
        return (abs(lit) << 1) | (lit < 0)

    def _add_original(self, lits: List[int]) -> None:
        if not self._ok:
            return
        seen = set()
        simplified: List[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                simplified.append(lit)
        if not simplified:
            self._ok = False
            return
        if len(simplified) == 1:
            self._units.append(simplified[0])
            return
        clause = _Clause(simplified)
        self.clauses.append(clause)
        self._watch(clause)

    def _watch(self, clause: _Clause) -> None:
        lits = clause.lits
        self.watches[self._key(lits[0])].append((lits[1], clause))
        self.watches[self._key(lits[1])].append((lits[0], clause))

    def add_clause(self, lits) -> None:
        """Add a clause between :meth:`solve` calls (incremental use).

        The solver backtracks to the root level; learned clauses and
        variable activities from earlier calls are retained, which is what
        makes lazy-refinement loops cheap when they reuse one solver.
        Only variables that existed at construction time may appear.
        """
        for lit in lits:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError("invalid literal %r" % (lit,))
        self._backtrack(0)
        self._add_original(list(lits))

    def ensure_nvars(self, nvars: int) -> None:
        """Grow the variable space to ``nvars`` (incremental use).

        New variables start unassigned with zero activity and default
        phase; clauses, learned clauses, and saved activities/phases of
        existing variables are untouched, so a session can keep one
        solver alive while its CNF grows.
        """
        if nvars <= self.nvars:
            return
        grow = nvars - self.nvars
        self.values.extend([0] * grow)
        self.levels.extend([0] * grow)
        self.reasons.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([-1] * grow)
        self.watches.extend([] for _ in range(2 * grow))
        self.nvars = nvars

    # -- assignment ---------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        v = self.values[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit: int, reason: Optional[_Clause]) -> None:
        var = abs(lit)
        self.values[var] = 1 if lit > 0 else -1
        self.levels[var] = self._level()
        self.reasons[var] = reason
        self.phase[var] = 1 if lit > 0 else -1
        self.trail.append(lit)

    def _level(self) -> int:
        return len(self.trail_lim)

    def _backtrack(self, level: int) -> None:
        if self._level() <= level:
            return
        bound = self.trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            var = abs(lit)
            self.values[var] = 0
            self.reasons[var] = None
            self._heap_insert(var)
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns the conflicting clause or ``None``.

        This is the solver's hot loop: locals are cached, literal
        valuation is inlined (``values[var]`` with a sign flip), and each
        watch entry carries a *blocking literal* — when the blocker is
        already true the clause is satisfied and is skipped without even
        loading its literal list.
        """
        values = self.values
        watches = self.watches
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        phase = self.phase
        trail_lim = self.trail_lim
        propagations = 0
        while self.qhead < len(trail):
            lit = trail[self.qhead]
            self.qhead += 1
            propagations += 1
            falsified = -lit
            key = (
                (falsified << 1)
                if falsified > 0
                else ((-falsified << 1) | 1)
            )
            watchlist = watches[key]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                entry = watchlist[i]
                i += 1
                blocker = entry[0]
                if (
                    values[blocker] if blocker > 0 else -values[-blocker]
                ) == 1:
                    watchlist[j] = entry
                    j += 1
                    continue
                clause = entry[1]
                lits = clause.lits
                # Ensure the falsified literal sits at index 1.
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_val = values[first] if first > 0 else -values[-first]
                if first_val == 1:
                    watchlist[j] = (first, clause)
                    j += 1
                    continue
                # Search for a replacement watch.
                moved = False
                for k in range(2, len(lits)):
                    other = lits[k]
                    if (
                        values[other] if other > 0 else -values[-other]
                    ) != -1:
                        lits[1], lits[k] = other, lits[1]
                        okey = (
                            (other << 1)
                            if other > 0
                            else ((-other << 1) | 1)
                        )
                        watches[okey].append((first, clause))
                        moved = True
                        break
                if moved:
                    continue
                # No replacement: clause is unit or conflicting.
                watchlist[j] = (first, clause)
                j += 1
                if first_val == -1:
                    # Conflict: keep remaining watches in place.
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    self.stats.propagations += propagations
                    return clause
                # Inlined assignment of the implied literal.
                if first > 0:
                    var = first
                    values[var] = 1
                    phase[var] = 1
                else:
                    var = -first
                    values[var] = -1
                    phase[var] = -1
                levels[var] = len(trail_lim)
                reasons[var] = clause
                trail.append(first)
            del watchlist[j:]
        self.stats.propagations += propagations
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self.cla_inc
        if clause.activity > 1e20:
            for c in self.learned:
                c.activity *= 1e-20
            self.cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause):
        """First-UIP learning; returns ``(learned_lits, backtrack_level)``."""
        learnt: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = None
        clause = conflict
        index = len(self.trail) - 1
        cur_level = self._level()

        while True:
            self._bump_clause(clause)
            start = 0 if lit is None else 1
            # By convention clause.lits[0] is the literal just resolved on
            # (for reason clauses); skip it on continuation rounds.
            for q in clause.lits[start:]:
                var = abs(q)
                if seen[var] or self.levels[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self.levels[var] == cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Pick the next trail literal to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            clause = self.reasons[var]
            # Reorder so lits[0] is the implied literal of this reason.
            if clause.lits[0] != lit:
                idx = clause.lits.index(lit)
                clause.lits[0], clause.lits[idx] = (
                    clause.lits[idx],
                    clause.lits[0],
                )

        learnt = self._minimize(learnt, seen)

        if len(learnt) == 1:
            return learnt, 0
        # Second-highest decision level among learnt literals.
        max_i = 1
        for i in range(2, len(learnt)):
            if self.levels[abs(learnt[i])] > self.levels[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self.levels[abs(learnt[1])]

    def _minimize(self, learnt: List[int], seen: List[bool]) -> List[int]:
        """Drop literals implied by the rest of the clause (simple check)."""
        for lit in learnt[1:]:
            seen[abs(lit)] = True
        out = [learnt[0]]
        for lit in learnt[1:]:
            reason = self.reasons[abs(lit)]
            if reason is None:
                out.append(lit)
                continue
            redundant = True
            for q in reason.lits:
                var = abs(q)
                if var == abs(lit):
                    continue
                if not seen[var] and self.levels[var] != 0:
                    redundant = False
                    break
            if not redundant:
                out.append(lit)
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        return out

    def _analyze_final(self, p: int) -> List[int]:
        """Final-conflict analysis (MiniSat's ``analyzeFinal``).

        Called when assumption ``p`` is already false under the current
        trail.  Walks the trail backwards from the top, expanding reason
        clauses, and collects the reason-free entries above level 0 —
        during assumption processing every decision level is an
        assumption level, so those are exactly the assumption literals
        the falsification of ``p`` depends on.  The result (including
        ``p`` itself) is an unsat core: the clause database conjoined
        with exactly these literals is unsatisfiable.
        """
        core = [p]
        if not self.trail_lim:
            return core
        seen = [False] * (self.nvars + 1)
        seen[abs(p)] = True
        for index in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[index]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self.reasons[var]
            if reason is None:
                core.append(lit)
            else:
                for q in reason.lits:
                    qvar = abs(q)
                    if qvar != var and self.levels[qvar] > 0:
                        seen[qvar] = True
            seen[var] = False
        return core

    # -- decision heuristic ---------------------------------------------------

    def _heap_insert(self, var: int) -> None:
        # Lazy heap: heapq with stale entries, filtered on pop.
        import heapq

        heapq.heappush(self._heap, (-self.activity[var], var))

    def _pick_branch_var(self) -> int:
        import heapq

        while self._heap:
            act, var = self._heap[0]
            if self.values[var] == 0 and -act == self.activity[var]:
                return var
            heapq.heappop(self._heap)
            if self.values[var] == 0:
                # Stale activity entry: reinsert with the fresh score.
                heapq.heappush(self._heap, (-self.activity[var], var))
        return 0

    # -- learned clause DB ----------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the worse half of the learned-clause database.

        Retention is LBD-aware (Glucose-style): clauses are ranked by
        literal-block distance first (high LBD goes first) and activity
        second, and "glue" clauses (LBD <= :attr:`GLUE_LBD`), binary
        clauses, and clauses locked as reasons are never deleted.
        """
        self.learned.sort(key=lambda c: (-c.lbd, c.activity))
        locked = {id(r) for r in self.reasons if r is not None}
        keep: List[_Clause] = []
        drop = set()
        half = len(self.learned) // 2
        for i, clause in enumerate(self.learned):
            if (
                i < half
                and clause.lbd > self.GLUE_LBD
                and id(clause) not in locked
                and len(clause.lits) > 2
            ):
                drop.add(id(clause))
                self.stats.deleted_clauses += 1
            else:
                keep.append(clause)
        self.learned = keep
        if drop:
            for wl in self.watches:
                wl[:] = [entry for entry in wl if id(entry[1]) not in drop]

    # -- main loop ------------------------------------------------------------

    def solve(self) -> SatResult:
        """Run the CDCL search.  May be called repeatedly; clauses added
        with :meth:`add_clause` in between are taken into account and all
        learned clauses/activities carry over."""
        return self.solve_under_assumptions(())

    def solve_under_assumptions(self, assumptions=()) -> SatResult:
        """Solve under temporary assumption literals (MiniSat-style).

        Each assumption occupies its own decision level before any real
        decision (an already-satisfied assumption gets an empty "dummy"
        level so levels and assumption indices stay aligned across
        backjumps).  When an assumption is falsified, final-conflict
        analysis produces an unsat core over the assumption literals in
        :attr:`SatResult.core`.

        Assumptions are *not* clauses: nothing learned ever depends on
        them.  Learned clauses are resolvents of database clauses only
        (assumptions enter analysis as reason-free decisions, which are
        never resolved on), so the full learned-clause database, variable
        activities, and saved phases safely carry over to later calls
        with different — or no — assumptions.
        """
        start = time.perf_counter()
        import heapq

        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError("invalid assumption literal %r" % (lit,))

        self._backtrack(0)
        # Re-propagate the whole root-level trail: clauses added since the
        # last call may be watched on literals that were already falsified
        # at level 0 and would otherwise never be examined.
        self.qhead = 0
        self._heap = []
        for var in range(1, self.nvars + 1):
            heapq.heappush(self._heap, (-self.activity[var], var))

        if not self._ok:
            return self._finish(UNSAT, start, core=[])

        # Level-0 units.
        for lit in self._units:
            val = self._lit_value(lit)
            if val == -1:
                return self._finish(UNSAT, start, core=[])
            if val == 0:
                self._assign(lit, None)
        if self._propagate() is not None:
            return self._finish(UNSAT, start, core=[])

        max_learned = max(len(self.clauses) // 3, 2000)
        conflicts_until_restart = self.RESTART_BASE * _luby(1)
        restart_count = 1
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self._level() == 0:
                    return self._finish(UNSAT, start, core=[])
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    if self._lit_value(learnt[0]) == -1:
                        return self._finish(UNSAT, start, core=[])
                    if self._lit_value(learnt[0]) == 0:
                        self._assign(learnt[0], None)
                else:
                    clause = _Clause(learnt, learned=True)
                    levels = self.levels
                    clause.lbd = len(
                        {levels[abs(q)] for q in learnt}
                    )
                    self.learned.append(clause)
                    self.stats.learned_clauses += 1
                    self._watch(clause)
                    self._bump_clause(clause)
                    self._assign(learnt[0], clause)
                self.var_inc /= self.VAR_DECAY
                self.cla_inc /= self.CLAUSE_DECAY

                if (
                    self.max_conflicts is not None
                    and self.stats.conflicts >= self.max_conflicts
                ):
                    return self._finish(UNKNOWN, start)
                if (
                    self.time_limit is not None
                    and self.stats.conflicts % 64 == 0
                    and time.perf_counter() - start > self.time_limit
                ):
                    return self._finish(UNKNOWN, start)
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self.RESTART_BASE * _luby(
                    restart_count
                )
                # Backtracking to 0 pops the assumption levels too; the
                # decision step below re-pushes them in order.
                self._backtrack(0)
                continue

            if len(self.learned) - len(self.trail) >= max_learned:
                self._reduce_db()
                max_learned = int(max_learned * 1.3)

            # Assumption levels precede real decisions.
            lit = 0
            while self._level() < len(assumptions):
                p = assumptions[self._level()]
                val = self._lit_value(p)
                if val == 1:
                    self.trail_lim.append(len(self.trail))  # dummy level
                elif val == -1:
                    return self._finish(
                        UNSAT, start, core=self._analyze_final(p)
                    )
                else:
                    lit = p
                    break
            if lit == 0:
                lit = self._next_decision()
                if lit == 0:
                    model = {
                        v: self.values[v] == 1
                        for v in range(1, self.nvars + 1)
                    }
                    return self._finish(SAT, start, model=model)
                self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self._level()
            )
            self._assign(lit, None)

    def _finish(
        self,
        status: str,
        start: float,
        model: Optional[Dict[int, bool]] = None,
        core: Optional[List[int]] = None,
    ) -> SatResult:
        self.stats.time_seconds = time.perf_counter() - start
        return SatResult(status, model=model, stats=self.stats, core=core)

    def _next_decision(self) -> int:
        """Next decision literal; 0 when the assignment is total."""
        var = self._pick_branch_var()
        if var == 0:
            return 0
        return var if self.phase[var] >= 0 else -var


def solve_cnf(
    cnf: Cnf,
    max_conflicts: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> SatResult:
    """One-shot convenience wrapper around :class:`CdclSolver`."""
    return CdclSolver(
        cnf, max_conflicts=max_conflicts, time_limit=time_limit
    ).solve()
