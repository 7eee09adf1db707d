"""An arena-based CDCL SAT solver (the role zChaff plays in the paper).

The solver implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation with blocking literals,
* first-UIP conflict analysis with recursive clause minimisation,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* glue-aware (LBD) learned-clause database reduction,
* inprocessing between reduction rounds: bounded clause vivification
  and backward subsumption over the learned-clause database,
* an optional theory consulted at every propagation fixpoint (DPLL(T)):
  a theory conflict is learned like any other conflict.

It also exposes the counters the paper's Figure 2 reports — CNF clause
count, *conflict (learned) clause* count, decisions, propagations — so the
SD-vs-EIJ search-behaviour comparison can be reproduced measurement for
measurement.

Memory layout (the PR 7 arena refactor)
---------------------------------------

Literals are int-packed throughout: variable ``v`` appears as ``2v``
(positive) or ``2v + 1`` (negative), so negation is ``lit ^ 1`` and the
variable is ``lit >> 1`` — no sign branches in the hot loop, and every
per-literal table (``vals``, watcher lists) indexes directly by literal.

Clauses live in a single flat arena list instead of one object each::

    ref ->  [ size | flags | lbd | activity | lit0 | lit1 | ... ]
              +0     +1      +2    +3         +4 (watched lits first)

``flags`` is 0 for original clauses, 1 for learned, 2 for dead.  Dead
clauses keep their ``size`` slot so the arena stays stride-walkable;
their slots are recycled through a size-bucketed free list refreshed on
:meth:`CdclSolver._reduce_db`, and the arena is compacted (live clauses
slid down, every stored ref remapped) when more than half of it is dead.

The arena is a plain Python ``list``, not ``array('i')``: the solver
reads literals far more often than it stores them, and ``array`` boxes
a fresh ``int`` object on every subscript while a list hands back the
stored object directly — measurably slower in ``_propagate`` (the
activity header slot holding a float rules out ``array('i')`` anyway).
The *cold* storage (:class:`repro.sat.cnf.Cnf`) does use ``array('i')``;
the solver bulk-loads from it once at attach time.

Watcher lists are paired flat arrays ``watch_blockers[lit]`` /
``watch_refs[lit]`` — no per-move tuple allocation.  Binary clauses are
specialised into their own paired lists ``bin_blockers`` / ``bin_refs``:
the blocker *is* the other literal, the entries never relocate, and
propagation resolves them without touching the arena.  The trail /
reason / level tables are preallocated arrays indexed by variable, and
``vals`` is indexed by packed literal (both polarities written on
assignment) so valuation is a single load.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Set

from .cnf import Cnf, pack_literal, unpack_literal

__all__ = ["SatStats", "SatResult", "Theory", "CdclSolver", "solve_cnf"]

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

#: Arena header width: [size, flags, lbd, activity] precede the literals.
HEADER = 4
FLAG_ORIGINAL = 0
FLAG_LEARNED = 1
FLAG_DEAD = 2
#: ``reasons[var]`` value for decisions / assumptions / level-0 units.
NO_REASON = -1


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
    # Inprocessing / arena counters (PR 7).
    inprocessings: int = 0
    vivified_clauses: int = 0
    vivified_literals: int = 0
    subsumed_clauses: int = 0
    compactions: int = 0
    # Clause-sharing counters (cube-and-conquer, PR 8).
    exported_clauses: int = 0
    imported_clauses: int = 0
    #: Conflicts the theory found (also counted in ``conflicts``).
    theory_conflicts: int = 0


@dataclass
class SatResult:
    """Outcome of a SAT call.

    ``status`` is ``"SAT"``, ``"UNSAT"`` or ``"UNKNOWN"``.  For SAT,
    ``model`` maps every variable to a boolean.  For UNSAT under
    assumptions, ``core`` holds the subset of assumption literals (signed,
    as passed in) whose conjunction with the clause database is already
    unsatisfiable.
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


class Theory(Protocol):
    """What :class:`CdclSolver` asks of an attached theory.

    ``head`` is how many trail literals the theory has read.
    :meth:`check` reads ``trail[head:size]`` (packed literals) and
    returns ``None``, or a lemma: packed literals, all false under the
    trail, whose disjunction the theory implies.  :meth:`backtrack`
    forgets the trail from position ``size`` on.
    :class:`repro.theory.difference.DifferenceTheory` is the one
    implementation.
    """

    head: int

    def check(
        self, trail: Sequence[int], size: int
    ) -> Optional[List[int]]: ...

    def backtrack(self, size: int) -> None: ...


def _luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    x = i - 1
    seq = 0
    size = 1
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
        The input formula.  Clauses are bulk-copied into the solver's
        arena straight from the packed representation; the input is not
        mutated.
    max_conflicts:
        Abort with ``UNKNOWN`` after this many conflicts (``None`` = off).
    time_limit:
        Abort with ``UNKNOWN`` after this many seconds (``None`` = off).
        May be reassigned between calls (incremental sessions do).
    inprocess:
        Enable vivification + learned-clause subsumption between
        ``_reduce_db`` rounds.  Exposed so differential tests can check
        that inprocessing never changes a verdict.
    theory:
        A :class:`Theory` over the CNF's variables, checked at every
        conflict-free propagation fixpoint; its lemma is added as a
        learned clause and analysed like a propagation conflict, so a
        SAT answer's model is consistent with the theory.  ``None``
        (the default) is plain SAT.
    """

    RESTART_BASE = 128
    VAR_DECAY = 0.95
    CLAUSE_DECAY = 0.999
    #: Learned clauses with LBD at or below this are never deleted
    #: ("glue" clauses in Glucose terminology).
    GLUE_LBD = 3
    #: Vivification looks at at most this many candidates per round ...
    VIVIFY_MAX_CLAUSES = 64
    #: ... and stops early once it has spent this many propagations.
    VIVIFY_BUDGET = 20000

    def __init__(
        self,
        cnf: Cnf,
        max_conflicts: Optional[int] = None,
        time_limit: Optional[float] = None,
        inprocess: bool = True,
        theory: Optional[Theory] = None,
    ) -> None:
        self.nvars = cnf.num_vars
        self.max_conflicts = max_conflicts
        self.time_limit = time_limit
        self.inprocess = inprocess
        self.theory = theory
        self.stats = SatStats(original_clauses=len(cnf))

        n = self.nvars + 1
        #: Valuation indexed by packed literal: 1 true, -1 false, 0 unset.
        self.vals: List[int] = [0] * (2 * n)
        self.levels: List[int] = [0] * n
        self.reasons: List[int] = [NO_REASON] * n
        self.activity: List[float] = [0.0] * n
        #: Saved polarity bit per variable (1 = negative, the default).
        self.phase = bytearray(b"\x01" * n)
        #: Preallocated trail of packed literals; ``trail_size`` is the top.
        self.trail: List[int] = [0] * n
        self.trail_size = 0
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.cla_inc = 1.0

        #: The flat clause arena (see the module docstring for layout).
        self.arena: List = []
        #: Paired watcher arrays indexed by packed literal (size > 2).
        self.watch_blockers: List[List[int]] = [[] for _ in range(2 * n)]
        self.watch_refs: List[List[int]] = [[] for _ in range(2 * n)]
        #: Binary clauses live in their own paired arrays: the "blocker"
        #: is the other literal, and the entry never relocates, so the
        #: propagation pass over them is a pure read loop.
        self.bin_blockers: List[List[int]] = [[] for _ in range(2 * n)]
        self.bin_refs: List[List[int]] = [[] for _ in range(2 * n)]
        #: Refs of live learned clauses (may briefly contain dead refs
        #: between a deletion and the next filter; flags are authoritative).
        self.learned_refs: List[int] = []
        #: Non-unit original clause count (sizes the learned-DB limit).
        self.n_original = 0
        #: Size-bucketed free list of dead refs, refreshed on _reduce_db.
        self._free: Dict[int, List[int]] = {}
        self._wasted = 0
        self._ok = True
        self._units: List[int] = []
        self._heap: List = []
        #: Clause-sharing hooks (cube-and-conquer conduit, PR 8).
        #: ``export_hook(signed_lits, lbd)`` is called for every learned
        #: clause passing the size/glue admission filter below; learned
        #: units are exported with ``lbd=1``.  ``import_hook()`` returns
        #: signed clauses to adopt and is drained at restart boundaries
        #: (the solver is at the root level there, so imported clauses
        #: and units attach exactly like :meth:`add_clause` additions).
        #: Shared clauses are sound across cubes because nothing learned
        #: ever depends on assumptions (see
        #: :meth:`solve_under_assumptions`).
        self.export_hook: Optional[Callable[[List[int], int], None]] = None
        self.import_hook: Optional[Callable[[], List[List[int]]]] = None
        #: Admission filter: non-unit clauses are exported when they are
        #: short (at most ``export_max_size`` literals) *or* glue (LBD at
        #: most ``export_max_lbd``) — pigeonhole-style instances learn
        #: long low-LBD clauses, so an AND filter would share nothing.
        self.export_max_size = 8
        self.export_max_lbd = 4
        #: Scratch stamps for duplicate/tautology detection on insert.
        self._stamps: List[int] = [0] * (2 * n)
        self._stamp = 0

        self.attach_from(cnf, 0)

    # -- clause plumbing ----------------------------------------------------

    def attach_from(self, cnf: Cnf, start: int = 0) -> None:
        """Bulk-attach clauses ``start..`` of ``cnf``'s packed arena.

        Used at construction (``start=0``) and by incremental sessions
        feeding CNF growth into a live solver without materializing
        signed clause lists.  Backtracks to the root level first, like
        :meth:`add_clause`.
        """
        if cnf.num_vars > self.nvars:
            self.ensure_nvars(cnf.num_vars)
        self._backtrack(0)
        lits, starts = cnf.packed_arrays()
        stamps = self._stamps
        for i in range(start, len(starts) - 1):
            if not self._ok:
                return
            a = starts[i]
            b = starts[i + 1]
            self._stamp += 1
            stamp = self._stamp
            simplified: List[int] = []
            tautology = False
            for k in range(a, b):
                q = lits[k]
                if stamps[q ^ 1] == stamp:
                    tautology = True
                    break
                if stamps[q] != stamp:
                    stamps[q] = stamp
                    simplified.append(q)
            if not tautology:
                self._attach_simplified(simplified)

    def _attach_simplified(self, lits: List[int]) -> None:
        """Attach a deduplicated, tautology-free packed clause."""
        if not lits:
            self._ok = False
            return
        if len(lits) == 1:
            self._units.append(lits[0])
            return
        ref = self._alloc(lits, FLAG_ORIGINAL, 0)
        self.n_original += 1
        self._watch_clause(ref)

    def _alloc(self, lits: List[int], flags: int, lbd: int) -> int:
        """Place a clause in the arena, recycling a free slot if one fits."""
        size = len(lits)
        bucket = self._free.get(size)
        arena = self.arena
        if bucket:
            ref = bucket.pop()
            arena[ref] = size
            arena[ref + 1] = flags
            arena[ref + 2] = lbd
            arena[ref + 3] = 0
            arena[ref + HEADER : ref + HEADER + size] = lits
            self._wasted -= HEADER + size
            return ref
        ref = len(arena)
        arena.append(size)
        arena.append(flags)
        arena.append(lbd)
        arena.append(0)
        arena.extend(lits)
        return ref

    def _watch_clause(self, ref: int) -> None:
        """Watch the first two literals; binary clauses get their own lists."""
        arena = self.arena
        base = ref + HEADER
        l0 = arena[base]
        l1 = arena[base + 1]
        if arena[ref] == 2:
            self.bin_blockers[l0].append(l1)
            self.bin_refs[l0].append(ref)
            self.bin_blockers[l1].append(l0)
            self.bin_refs[l1].append(ref)
            return
        self.watch_blockers[l0].append(l1)
        self.watch_refs[l0].append(ref)
        self.watch_blockers[l1].append(l0)
        self.watch_refs[l1].append(ref)

    def _detach_clause(self, ref: int) -> None:
        """Remove the clause's two watch entries (cold path)."""
        arena = self.arena
        base = ref + HEADER
        binary = arena[ref] == 2
        for lit in (arena[base], arena[base + 1]):
            refs = self.bin_refs[lit] if binary else self.watch_refs[lit]
            idx = refs.index(ref)
            del refs[idx]
            if binary:
                del self.bin_blockers[lit][idx]
            else:
                del self.watch_blockers[lit][idx]

    def _mark_dead(self, ref: int) -> None:
        """Flag a (detached) clause dead; the slot is recycled later.

        The ``size`` slot is preserved so stride walks over the arena
        keep working; the ref enters the free list only when
        :meth:`_reduce_db` next rebuilds it, so a dead ref can never be
        reused while a stale copy of it is still held somewhere.
        """
        self._wasted += HEADER + self.arena[ref]
        self.arena[ref + 1] = FLAG_DEAD

    def add_clause(self, lits) -> None:
        """Add a clause of signed literals between solve calls.

        The solver backtracks to the root level; learned clauses and
        variable activities from earlier calls are retained, which is what
        makes lazy-refinement loops cheap when they reuse one solver.
        Only variables that existed at construction time may appear.
        """
        packed = []
        for lit in lits:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError("invalid literal %r" % (lit,))
            packed.append((lit << 1) if lit > 0 else ((-lit) << 1) | 1)
        self.add_packed_clause(packed)

    def add_packed_clause(self, lits: List[int]) -> None:
        """Add a clause of packed literals between solve calls."""
        if not self._ok:
            return
        self._backtrack(0)
        stamps = self._stamps
        self._stamp += 1
        stamp = self._stamp
        simplified: List[int] = []
        for q in lits:
            if stamps[q ^ 1] == stamp:
                return  # tautology
            if stamps[q] != stamp:
                stamps[q] = stamp
                simplified.append(q)
        self._attach_simplified(simplified)

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
        self.vals.extend([0] * (2 * grow))
        self.levels.extend([0] * grow)
        self.reasons.extend([NO_REASON] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend(b"\x01" * grow)
        self.trail.extend([0] * grow)
        self.watch_blockers.extend([] for _ in range(2 * grow))
        self.watch_refs.extend([] for _ in range(2 * grow))
        self.bin_blockers.extend([] for _ in range(2 * grow))
        self.bin_refs.extend([] for _ in range(2 * grow))
        self._stamps.extend([0] * (2 * grow))
        self.nvars = nvars

    # -- introspection (tests / debugging; not hot paths) -------------------

    def clause_signed(self, ref: int) -> List[int]:
        """The clause at ``ref`` as signed literals."""
        arena = self.arena
        base = ref + HEADER
        return [unpack_literal(q) for q in arena[base : base + arena[ref]]]

    def live_learned_refs(self) -> List[int]:
        arena = self.arena
        return [r for r in self.learned_refs if arena[r + 1] != FLAG_DEAD]

    def learned_signed(self) -> List[List[int]]:
        """Live learned clauses as signed-literal lists."""
        return [self.clause_signed(r) for r in self.live_learned_refs()]

    # -- assignment ---------------------------------------------------------

    def _assign(self, lit: int, reason: int) -> None:
        var = lit >> 1
        self.vals[lit] = 1
        self.vals[lit ^ 1] = -1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.phase[var] = lit & 1
        self.trail[self.trail_size] = lit
        self.trail_size += 1

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        vals = self.vals
        reasons = self.reasons
        trail = self.trail
        activity = self.activity
        heap = self._heap
        heappush = heapq.heappush
        # Unassignment is order-independent; iterate the slice directly.
        for lit in trail[bound:self.trail_size]:
            vals[lit] = 0
            vals[lit ^ 1] = 0
            var = lit >> 1
            reasons[var] = NO_REASON
            heappush(heap, (-activity[var], var))
        self.trail_size = bound
        del self.trail_lim[level:]
        if self.qhead > bound:
            self.qhead = bound
        theory = self.theory
        if theory is not None and theory.head > bound:
            theory.backtrack(bound)

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> int:  # repro: hot-loop
        """Unit propagation; returns the conflicting ref or ``NO_REASON``.

        This is the solver's hot loop and it is deliberately flat: every
        table is a cached local, valuation is one load (``vals`` indexes
        by packed literal), and watcher traversal walks two parallel int
        lists instead of tuple objects.  Binary clauses live in their own
        paired lists and are handled by a dedicated pass that never loads
        the arena or moves a watch — the "blocker" *is* the other
        literal, and the ref only matters for a reason or conflict.

        Each long-clause watch list is scanned in two phases: a read-only
        pass that runs until a watch actually leaves the list (most
        visits move nothing, so most scans never write), and a copy-down
        pass that compacts the survivors in place from that point on.
        """
        vals = self.vals
        arena = self.arena
        all_blockers = self.watch_blockers
        all_refs = self.watch_refs
        all_bin_blockers = self.bin_blockers
        all_bin_refs = self.bin_refs
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        phase = self.phase
        stats = self.stats
        lvl = len(self.trail_lim)
        qhead = self.qhead
        ts = self.trail_size
        props = 0
        while qhead < ts:
            fkey = trail[qhead] ^ 1
            qhead += 1
            props += 1
            # Binary pass: pure reads, the list never changes shape.
            bin_blockers = all_bin_blockers[fkey]
            if bin_blockers:
                for blocker, bref in zip(bin_blockers, all_bin_refs[fkey]):
                    bv = vals[blocker]
                    if bv > 0:
                        continue
                    if bv < 0:
                        self.qhead = qhead
                        self.trail_size = ts
                        stats.propagations += props
                        return bref
                    var = blocker >> 1
                    vals[blocker] = 1
                    vals[blocker ^ 1] = -1
                    levels[var] = lvl
                    reasons[var] = bref
                    phase[var] = blocker & 1
                    trail[ts] = blocker
                    ts += 1
            flevel = levels[fkey >> 1]
            blockers = all_blockers[fkey]
            refs = all_refs[fkey]
            i = 0
            relocated = False
            # Phase 1: nothing has left this list yet, so every survivor
            # is already in place — no compaction writes.  (In-place
            # stores during iteration are safe: the list only changes
            # shape in phase 2, and relocation appends target a
            # different literal's list — ``other`` is never false here
            # while ``fkey`` is, so the two can't alias.)
            for i, blocker in enumerate(blockers):
                if vals[blocker] > 0:
                    continue
                ref = refs[i]
                base = ref + 4
                # Ensure the falsified literal sits at slot base+1.
                first = arena[base]
                if first == fkey:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = fkey
                if first != blocker and vals[first] > 0:
                    blockers[i] = first
                    continue
                # Search for a replacement watch (ternary clauses — the
                # bulk of 3-CNF databases — skip the scan loop).
                size = arena[ref]
                if size == 3:
                    other = arena[base + 2]
                    if vals[other] >= 0:
                        if vals[other] > 0 and levels[other >> 1] <= flevel:
                            # Clause already satisfied: keep the (false)
                            # watch and remember the witness as blocker.
                            # Sound only while any backtrack unassigning
                            # the witness unassigns fkey too — hence the
                            # level guard.
                            blockers[i] = other
                            continue
                        # First relocation: drop to the copy-down pass.
                        arena[base + 1] = other
                        arena[base + 2] = fkey
                        all_blockers[other].append(first)
                        all_refs[other].append(ref)
                        relocated = True
                        break
                else:
                    end = base + size
                    k = base + 2
                    while k < end:
                        if vals[arena[k]] >= 0:
                            break
                        k += 1
                    if k < end:
                        other = arena[k]
                        if vals[other] > 0 and levels[other >> 1] <= flevel:
                            # Satisfied: keep the watch (level guard as
                            # above).
                            blockers[i] = other
                            continue
                        # Before paying for a relocation, scan the rest
                        # of the clause for a keepable true witness — a
                        # relocation costs two appends now and a revisit
                        # later, so a longer read-only scan wins.
                        k2 = k + 1
                        witness = -1
                        while k2 < end:
                            o2 = arena[k2]
                            if vals[o2] > 0 and levels[o2 >> 1] <= flevel:
                                witness = o2
                                break
                            k2 += 1
                        if witness >= 0:
                            blockers[i] = witness
                            continue
                        arena[base + 1] = other
                        arena[k] = fkey
                        all_blockers[other].append(first)
                        all_refs[other].append(ref)
                        relocated = True
                        break
                # No replacement: clause is unit or conflicting.
                blockers[i] = first
                fv = vals[first]
                if fv < 0:
                    self.qhead = qhead
                    self.trail_size = ts
                    stats.propagations += props
                    return ref
                # Inlined assignment of the implied literal.
                var = first >> 1
                vals[first] = 1
                vals[first ^ 1] = -1
                levels[var] = lvl
                reasons[var] = ref
                phase[var] = first & 1
                trail[ts] = first
                ts += 1
            if not relocated:
                continue
            # Phase 2: the slot at i is free; compact survivors down.
            n = len(blockers)
            j = i
            i += 1
            while i < n:
                blocker = blockers[i]
                bv = vals[blocker]
                if bv > 0:
                    blockers[j] = blocker
                    refs[j] = refs[i]
                    j += 1
                    i += 1
                    continue
                ref = refs[i]
                i += 1
                base = ref + 4
                first = arena[base]
                if first == fkey:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = fkey
                if first != blocker and vals[first] > 0:
                    blockers[j] = first
                    refs[j] = ref
                    j += 1
                    continue
                size = arena[ref]
                if size == 3:
                    other = arena[base + 2]
                    if vals[other] >= 0:
                        if vals[other] > 0 and levels[other >> 1] <= flevel:
                            # Satisfied: keep the watch, refresh the
                            # blocker (same level guard as in phase 1).
                            blockers[j] = other
                            refs[j] = ref
                            j += 1
                            continue
                        arena[base + 1] = other
                        arena[base + 2] = fkey
                        all_blockers[other].append(first)
                        all_refs[other].append(ref)
                        continue
                else:
                    end = base + size
                    k = base + 2
                    while k < end:
                        if vals[arena[k]] >= 0:
                            break
                        k += 1
                    if k < end:
                        other = arena[k]
                        if vals[other] > 0 and levels[other >> 1] <= flevel:
                            blockers[j] = other
                            refs[j] = ref
                            j += 1
                            continue
                        # Same extended witness scan as phase 1.
                        k2 = k + 1
                        witness = -1
                        while k2 < end:
                            o2 = arena[k2]
                            if vals[o2] > 0 and levels[o2 >> 1] <= flevel:
                                witness = o2
                                break
                            k2 += 1
                        if witness >= 0:
                            blockers[j] = witness
                            refs[j] = ref
                            j += 1
                            continue
                        arena[base + 1] = other
                        arena[k] = fkey
                        all_blockers[other].append(first)
                        all_refs[other].append(ref)
                        continue
                blockers[j] = first
                refs[j] = ref
                j += 1
                fv = vals[first]
                if fv < 0:
                    # Conflict: keep remaining watches in place.
                    while i < n:
                        blockers[j] = blockers[i]
                        refs[j] = refs[i]
                        j += 1
                        i += 1
                    del blockers[j:]
                    del refs[j:]
                    self.qhead = qhead
                    self.trail_size = ts
                    stats.propagations += props
                    return ref
                var = first >> 1
                vals[first] = 1
                vals[first ^ 1] = -1
                levels[var] = lvl
                reasons[var] = ref
                phase[var] = first & 1
                trail[ts] = first
                ts += 1
            del blockers[j:]
            del refs[j:]
        self.qhead = qhead
        self.trail_size = ts
        stats.propagations += props
        return NO_REASON

    def _theory_conflict(self, theory: Theory) -> int:
        """Hand the new trail literals to ``theory``.

        Returns ``NO_REASON``, or the ref of the theory's lemma, added as
        a learned clause watched on its two highest-level literals, after
        backtracking to the highest level among them so that analysis
        starts from a conflict at the current level (at level 0, the
        caller reports UNSAT).
        """
        lemma = theory.check(self.trail, self.trail_size)
        if lemma is None:
            return NO_REASON
        self.stats.theory_conflicts += 1
        levels = self.levels
        lemma.sort(key=lambda q: levels[q >> 1], reverse=True)
        ref = self._alloc(
            lemma, FLAG_LEARNED, len({levels[q >> 1] for q in lemma})
        )
        self.learned_refs.append(ref)
        self._watch_clause(ref)
        self._backtrack(levels[lemma[0] >> 1])
        return ref

    # -- conflict analysis ---------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            self._rescale_var_activity()

    def _rescale_var_activity(self) -> None:
        activity = self.activity
        for v in range(1, self.nvars + 1):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100
        # Heap keys predate the rescale by varying factors, so ordering
        # against fresh pushes would be wrong; rebuild from scratch.
        vals = self.vals
        heap = [
            (-activity[v], v)
            for v in range(1, self.nvars + 1)
            if vals[v << 1] == 0
        ]
        heapq.heapify(heap)
        self._heap = heap

    def _bump_clause(self, ref: int) -> None:
        arena = self.arena
        arena[ref + 3] += self.cla_inc
        if arena[ref + 3] > 1e20:
            self._rescale_clause_activity()

    def _rescale_clause_activity(self) -> None:
        # Stride-walk the whole arena (dead slots keep their size).
        arena = self.arena
        ref = 0
        end = len(arena)
        while ref < end:
            arena[ref + 3] *= 1e-20
            ref += HEADER + arena[ref]
        self.cla_inc *= 1e-20

    def _analyze(self, conflict: int):
        """First-UIP learning; returns ``(learned_lits, backtrack_level)``."""
        arena = self.arena
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        cla_inc = self.cla_inc
        learnt: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = bytearray(self.nvars + 1)
        counter = 0
        lit = -1
        ref = conflict
        index = self.trail_size - 1
        cur_level = len(self.trail_lim)

        while True:
            arena[ref + 3] += cla_inc
            if arena[ref + 3] > 1e20:
                self._rescale_clause_activity()
                cla_inc = self.cla_inc
            base = ref + HEADER
            # By convention arena[base] is the literal just resolved on
            # (for reason clauses); skip it on continuation rounds.
            start = base if lit < 0 else base + 1
            for k in range(start, base + arena[ref]):
                q = arena[k]
                var = q >> 1
                if seen[var] or levels[var] == 0:
                    continue
                seen[var] = 1
                activity[var] += var_inc
                if activity[var] > 1e100:
                    self._rescale_var_activity()
                    var_inc = self.var_inc
                if levels[var] == cur_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Pick the next trail literal to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = lit ^ 1
                break
            ref = reasons[var]
            # Reorder so arena[base] is the implied literal of this reason.
            base = ref + HEADER
            if arena[base] != lit:
                for k in range(base + 1, base + arena[ref]):
                    if arena[k] == lit:
                        arena[k] = arena[base]
                        arena[base] = lit
                        break

        learnt = self._minimize(learnt, seen)

        if len(learnt) == 1:
            return learnt, 0
        # Second-highest decision level among learnt literals.
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[learnt[i] >> 1] > levels[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[learnt[1] >> 1]

    def _minimize(self, learnt: List[int], seen: bytearray) -> List[int]:
        """Drop literals implied by the rest of the clause (simple check)."""
        arena = self.arena
        levels = self.levels
        reasons = self.reasons
        for lit in learnt[1:]:
            seen[lit >> 1] = 1
        out = [learnt[0]]
        for lit in learnt[1:]:
            var = lit >> 1
            reason = reasons[var]
            if reason < 0:
                out.append(lit)
                continue
            redundant = True
            base = reason + HEADER
            for k in range(base, base + arena[reason]):
                qvar = arena[k] >> 1
                if qvar == var:
                    continue
                if not seen[qvar] and levels[qvar] != 0:
                    redundant = False
                    break
            if not redundant:
                out.append(lit)
        for lit in learnt[1:]:
            seen[lit >> 1] = 0
        return out

    def _analyze_final(self, p: int) -> List[int]:
        """Final-conflict analysis (MiniSat's ``analyzeFinal``).

        Called when assumption ``p`` (packed) is already false under the
        current trail.  Walks the trail backwards from the top, expanding
        reason clauses, and collects the reason-free entries above level
        0 — during assumption processing every decision level is an
        assumption level, so those are exactly the assumption literals
        the falsification of ``p`` depends on.  The result (including
        ``p`` itself) is an unsat core: the clause database conjoined
        with exactly these literals is unsatisfiable.
        """
        core = [p]
        if not self.trail_lim:
            return core
        arena = self.arena
        levels = self.levels
        seen = bytearray(self.nvars + 1)
        seen[p >> 1] = 1
        for index in range(self.trail_size - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[index]
            var = lit >> 1
            if not seen[var]:
                continue
            reason = self.reasons[var]
            if reason < 0:
                core.append(lit)
            else:
                base = reason + HEADER
                for k in range(base, base + arena[reason]):
                    qvar = arena[k] >> 1
                    if qvar != var and levels[qvar] > 0:
                        seen[qvar] = 1
            seen[var] = 0
        return core

    # -- decision heuristic ---------------------------------------------------

    def _pick_branch_var(self) -> int:
        # Lazy heap: assigned entries are discarded on pop.  No staleness
        # check is needed for the rest: only trail variables are ever
        # bumped (in _analyze), so an *unassigned* variable's activity is
        # exactly what _backtrack pushed at its last unassignment, and
        # that entry outranks any older duplicate.  Activity rescaling is
        # the one exception and rebuilds the heap outright.
        heap = self._heap
        vals = self.vals
        heappop = heapq.heappop
        while heap:
            var = heappop(heap)[1]
            if vals[var << 1] == 0:
                return var
        return 0

    def _next_decision(self) -> int:
        """Next decision literal (packed); 0 when the assignment is total."""
        var = self._pick_branch_var()
        if var == 0:
            return 0
        return (var << 1) | self.phase[var]

    # -- learned clause DB ----------------------------------------------------

    def _locked_refs(self) -> Set[int]:
        """Refs currently serving as reasons on the trail."""
        reasons = self.reasons
        trail = self.trail
        locked = set()
        for t in range(self.trail_size):
            r = reasons[trail[t] >> 1]
            if r >= 0:
                locked.add(r)
        return locked

    def _reduce_db(self) -> None:
        """Drop the worse half of the learned-clause database.

        Retention is LBD-aware (Glucose-style): clauses are ranked by
        literal-block distance first (high LBD goes first) and activity
        second, and "glue" clauses (LBD <= :attr:`GLUE_LBD`), binary
        clauses, and clauses locked as reasons are never deleted.

        Afterwards the free list is rebuilt from the arena (recycling
        every dead slot, including vivification kills) and the arena is
        compacted if more than half of it is dead.
        """
        arena = self.arena
        learned = [r for r in self.learned_refs if arena[r + 1] != FLAG_DEAD]
        learned.sort(key=lambda r: (-arena[r + 2], arena[r + 3]))
        locked = self._locked_refs()
        keep: List[int] = []
        half = len(learned) // 2
        dropped = False
        for i, ref in enumerate(learned):
            if (
                i < half
                and arena[ref + 2] > self.GLUE_LBD
                and ref not in locked
                and arena[ref] > 2
            ):
                self._mark_dead(ref)
                self.stats.deleted_clauses += 1
                dropped = True
            else:
                keep.append(ref)
        self.learned_refs = keep
        if dropped:
            self._purge_dead_watches()
        self._rebuild_free_list()
        if self._wasted * 2 > len(arena):
            self._compact()

    def _purge_dead_watches(self) -> None:
        """Drop watch entries whose ref points at a dead clause."""
        arena = self.arena
        for all_blockers, all_refs in (
            (self.watch_blockers, self.watch_refs),
            (self.bin_blockers, self.bin_refs),
        ):
            for key in range(len(all_refs)):
                refs = all_refs[key]
                dirty = False
                for r in refs:
                    if arena[r + 1] == FLAG_DEAD:
                        dirty = True
                        break
                if not dirty:
                    continue
                blockers = all_blockers[key]
                j = 0
                for i in range(len(refs)):
                    r = refs[i]
                    if arena[r + 1] == FLAG_DEAD:
                        continue
                    blockers[j] = blockers[i]
                    refs[j] = r
                    j += 1
                del blockers[j:]
                del refs[j:]

    def _rebuild_free_list(self) -> None:
        """Collect every dead slot into the size-bucketed free list."""
        arena = self.arena
        free: Dict[int, List[int]] = {}
        ref = 0
        end = len(arena)
        while ref < end:
            size = arena[ref]
            if arena[ref + 1] == FLAG_DEAD:
                free.setdefault(size, []).append(ref)
            ref += HEADER + size
        self._free = free

    def _compact(self) -> None:
        """Slide live clauses down, remapping every stored ref.

        Only called between conflicts at a point where no propagation is
        in flight (from :meth:`_reduce_db`), so the refs to remap are
        exactly: learned refs, trail reasons, and watch entries (both the
        long-clause and the binary lists).
        """
        arena = self.arena
        new_arena: List = []
        remap: Dict[int, int] = {}
        ref = 0
        end = len(arena)
        while ref < end:
            size = arena[ref]
            nxt = ref + HEADER + size
            if arena[ref + 1] != FLAG_DEAD:
                remap[ref] = len(new_arena)
                new_arena.extend(arena[ref:nxt])
            ref = nxt
        self.arena = new_arena
        self.learned_refs = [remap[r] for r in self.learned_refs]
        reasons = self.reasons
        trail = self.trail
        for t in range(self.trail_size):
            var = trail[t] >> 1
            r = reasons[var]
            if r >= 0:
                reasons[var] = remap[r]
        for refs in self.watch_refs:
            for i in range(len(refs)):
                refs[i] = remap[refs[i]]
        for refs in self.bin_refs:
            for i in range(len(refs)):
                refs[i] = remap[refs[i]]
        self._free = {}
        self._wasted = 0
        self.stats.compactions += 1

    # -- inprocessing ---------------------------------------------------------

    def _inprocess(self) -> bool:
        """Vivify + subsume the learned DB at the root level.

        Returns ``False`` when a root-level contradiction is derived
        (the clause database alone is unsatisfiable).  Runs just before
        :meth:`_reduce_db`, which recycles the slots killed here.
        """
        self._backtrack(0)
        self.stats.inprocessings += 1
        self._subsume_learned()
        return self._vivify()

    def _subsume_learned(self) -> None:
        """Backward subsumption among live learned clauses.

        Signature-filtered subset tests: each clause carries a 64-bit
        variable signature; ``C`` subsumes ``D`` only if ``sig(C)`` is a
        subset of ``sig(D)``.  Victims are found through an occurrence
        index on the clause's least-common literal.  Reason-locked
        clauses are never removed.
        """
        arena = self.arena
        refs = [r for r in self.learned_refs if arena[r + 1] != FLAG_DEAD]
        if len(refs) < 2:
            return
        locked = self._locked_refs()
        sigs: Dict[int, int] = {}
        occ: Dict[int, List[int]] = {}
        for r in refs:
            base = r + HEADER
            sig = 0
            for k in range(base, base + arena[r]):
                q = arena[k]
                sig |= 1 << ((q >> 1) & 63)
                occ.setdefault(q, []).append(r)
            sigs[r] = sig
        refs.sort(key=lambda r: arena[r])
        removed = 0
        for r in refs:
            if arena[r + 1] == FLAG_DEAD:
                continue
            base = r + HEADER
            size = arena[r]
            lits = arena[base : base + size]
            best = min(lits, key=lambda q: len(occ.get(q, ())))
            sig = sigs[r]
            litset = frozenset(lits)
            for cand in occ.get(best, ()):
                if cand == r or arena[cand + 1] == FLAG_DEAD:
                    continue
                if arena[cand] <= size or cand in locked:
                    continue
                if sig & ~sigs[cand]:
                    continue
                cbase = cand + HEADER
                if litset.issubset(arena[cbase : cbase + arena[cand]]):
                    self._detach_clause(cand)
                    self._mark_dead(cand)
                    removed += 1
        if removed:
            self.learned_refs = [
                r for r in self.learned_refs if arena[r + 1] != FLAG_DEAD
            ]
            self.stats.subsumed_clauses += removed

    def _vivify(self) -> bool:
        """Bounded clause vivification over the learned DB.

        Candidates are the live, unlocked, non-binary learned clauses
        with the best (lowest) LBD.  Returns ``False`` on a root-level
        contradiction.
        """
        arena = self.arena
        locked = self._locked_refs()
        cands = [
            r
            for r in self.learned_refs
            if arena[r + 1] != FLAG_DEAD and arena[r] > 2 and r not in locked
        ]
        cands.sort(key=lambda r: (arena[r + 2], arena[r]))
        del cands[self.VIVIFY_MAX_CLAUSES :]
        start_props = self.stats.propagations
        changed = False
        ok = True
        for ref in cands:
            if self.stats.propagations - start_props > self.VIVIFY_BUDGET:
                break
            result = self._vivify_one(ref)
            if result is None:
                ok = False
                break
            changed = changed or result
        if changed or not ok:
            self.learned_refs = [
                r for r in self.learned_refs if arena[r + 1] != FLAG_DEAD
            ]
        return ok

    def _vivify_one(self, ref: int) -> Optional[bool]:
        """Vivify one clause; ``True`` if changed, ``None`` on root conflict.

        The clause ``C = q1 ... qn`` is detached, then each literal is
        checked against the rest of the database by assuming the
        negations of the prefix:

        * ``qi`` true at level 0 -> the whole clause is satisfied: delete;
        * ``qi`` true under the scratch assumptions -> the prefix plus
          ``qi`` is implied: shorten to it;
        * ``qi`` false (any level) -> drop ``qi`` from the clause;
        * otherwise assume ``not qi``; a propagation conflict means the
          prefix plus ``qi`` is already implied: shorten to it.

        Every scratch decision is popped before returning.  A clause
        vivified down to one literal becomes a persistent unit; down to
        zero literals, a root-level contradiction.
        """
        arena = self.arena
        base = ref + HEADER
        size = arena[ref]
        lits = arena[base : base + size]
        vals = self.vals
        levels = self.levels
        self._detach_clause(ref)
        kept: List[int] = []
        satisfied = False
        for q in lits:
            v = vals[q]
            if v > 0:
                if levels[q >> 1] == 0:
                    satisfied = True
                else:
                    kept.append(q)
                break
            if v < 0:
                continue  # falsified under the prefix: drop the literal
            self.trail_lim.append(self.trail_size)
            self._assign(q ^ 1, NO_REASON)
            kept.append(q)
            if self._propagate() >= 0:
                break
        self._backtrack(0)
        if satisfied:
            self._mark_dead(ref)
            self.stats.vivified_clauses += 1
            return True
        if len(kept) == size:
            self._watch_clause(ref)
            return False
        self.stats.vivified_clauses += 1
        self.stats.vivified_literals += size - len(kept)
        if not kept:
            self._ok = False
            self._mark_dead(ref)
            return None
        if len(kept) == 1:
            self._mark_dead(ref)
            unit = kept[0]
            self._units.append(unit)
            v = vals[unit]
            if v < 0:
                self._ok = False
                return None
            if v == 0:
                self._assign(unit, NO_REASON)
                if self._propagate() >= 0:
                    self._ok = False
                    return None
            return True
        new_ref = self._alloc(
            kept, FLAG_LEARNED, min(arena[ref + 2], len(kept))
        )
        self.learned_refs.append(new_ref)
        self._watch_clause(new_ref)
        self._mark_dead(ref)
        return True

    # -- clause sharing -------------------------------------------------------

    def _import_shared(self) -> bool:
        """Adopt clauses from :attr:`import_hook`; ``False`` = root conflict.

        Called at restart boundaries, where the solver sits at decision
        level 0: every imported clause attaches through the
        :meth:`add_clause` path (deduplication, unit extraction), pending
        units are flushed onto the root trail, and one propagation round
        integrates the new clauses.  A contradiction here means the
        clause database alone is unsatisfiable.
        """
        assert self.import_hook is not None
        clauses = self.import_hook()
        if not clauses:
            return True
        for lits in clauses:
            self.add_clause(lits)
            self.stats.imported_clauses += 1
        if not self._ok:
            return False
        vals = self.vals
        for lit in self._units:
            val = vals[lit]
            if val < 0:
                return False
            if val == 0:
                self._assign(lit, NO_REASON)
        return self._propagate() < 0

    # -- main loop ------------------------------------------------------------

    def solve(self) -> SatResult:
        """Run the CDCL search.  May be called repeatedly; clauses added
        with :meth:`add_clause` in between are taken into account and all
        learned clauses/activities carry over."""
        return self.solve_under_assumptions(())

    def solve_under_assumptions(self, assumptions=()) -> SatResult:
        """Solve under temporary assumption literals (MiniSat-style).

        Assumptions are signed literals, as is the returned
        :attr:`SatResult.core`.  Each assumption occupies its own
        decision level before any real decision (an already-satisfied
        assumption gets an empty "dummy" level so levels and assumption
        indices stay aligned across backjumps).  When an assumption is
        falsified, final-conflict analysis produces an unsat core over
        the assumption literals.

        Assumptions are *not* clauses: nothing learned ever depends on
        them.  Learned clauses are resolvents of database clauses only
        (assumptions enter analysis as reason-free decisions, which are
        never resolved on), so the full learned-clause database, variable
        activities, and saved phases safely carry over to later calls
        with different — or no — assumptions.
        """
        start = time.perf_counter()
        packed_assumptions: List[int] = []
        for lit in assumptions:
            if lit == 0 or abs(lit) > self.nvars:
                raise ValueError("invalid assumption literal %r" % (lit,))
            packed_assumptions.append(pack_literal(lit))

        self._backtrack(0)
        # Re-propagate the whole root-level trail: clauses added since the
        # last call may be watched on literals that were already falsified
        # at level 0 and would otherwise never be examined.
        self.qhead = 0
        activity = self.activity
        heap = [(-activity[var], var) for var in range(1, self.nvars + 1)]
        heapq.heapify(heap)
        self._heap = heap

        if not self._ok:
            return self._finish(UNSAT, start, core=[])

        # Level-0 units.
        vals = self.vals
        for lit in self._units:
            val = vals[lit]
            if val < 0:
                return self._finish(UNSAT, start, core=[])
            if val == 0:
                self._assign(lit, NO_REASON)
        if self._propagate() >= 0:
            return self._finish(UNSAT, start, core=[])
        # A solve call is a restart boundary too: cube workers often
        # finish a cube between two Luby restarts, and clauses shared by
        # their peers must not wait a full restart period to arrive.
        if self.import_hook is not None and not self._import_shared():
            return self._finish(UNSAT, start, core=[])

        max_learned = max(self.n_original // 3, 2000)
        conflicts_until_restart = self.RESTART_BASE * _luby(1)
        restart_count = 1
        conflicts_since_restart = 0
        levels = self.levels
        theory = self.theory

        while True:
            conflict = self._propagate()
            if (
                conflict < 0
                and theory is not None
                and theory.head < self.trail_size
            ):
                conflict = self._theory_conflict(theory)
            if conflict >= 0:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    return self._finish(UNSAT, start, core=[])
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    unit = learnt[0]
                    if self.export_hook is not None:
                        self.stats.exported_clauses += 1
                        self.export_hook([unpack_literal(unit)], 1)
                    if vals[unit] < 0:
                        return self._finish(UNSAT, start, core=[])
                    if vals[unit] == 0:
                        self._assign(unit, NO_REASON)
                else:
                    lbd = len({levels[q >> 1] for q in learnt})
                    ref = self._alloc(learnt, FLAG_LEARNED, lbd)
                    self.learned_refs.append(ref)
                    self.stats.learned_clauses += 1
                    self._watch_clause(ref)
                    self._bump_clause(ref)
                    self._assign(learnt[0], ref)
                    if self.export_hook is not None and (
                        len(learnt) <= self.export_max_size
                        or lbd <= self.export_max_lbd
                    ):
                        self.stats.exported_clauses += 1
                        self.export_hook(
                            [unpack_literal(q) for q in learnt], lbd
                        )
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
                if self.import_hook is not None and not self._import_shared():
                    return self._finish(UNSAT, start, core=[])
                continue

            if len(self.learned_refs) - self.trail_size >= max_learned:
                if self.inprocess and not self._inprocess():
                    return self._finish(UNSAT, start, core=[])
                self._reduce_db()
                max_learned = int(max_learned * 1.3)

            # Assumption levels precede real decisions.
            lit = 0
            while len(self.trail_lim) < len(packed_assumptions):
                p = packed_assumptions[len(self.trail_lim)]
                val = vals[p]
                if val > 0:
                    self.trail_lim.append(self.trail_size)  # dummy level
                elif val < 0:
                    return self._finish(
                        UNSAT, start, core=self._analyze_final(p)
                    )
                else:
                    lit = p
                    break
            if lit == 0:
                lit = self._next_decision()
                if lit == 0:
                    if theory is not None and theory.head < self.trail_size:
                        continue  # units inprocessing fixed after the check
                    model = {
                        v: vals[v << 1] > 0
                        for v in range(1, self.nvars + 1)
                    }
                    return self._finish(SAT, start, model=model)
                self.stats.decisions += 1
            self.trail_lim.append(self.trail_size)
            if len(self.trail_lim) > self.stats.max_decision_level:
                self.stats.max_decision_level = len(self.trail_lim)
            self._assign(lit, NO_REASON)

    def _finish(
        self,
        status: str,
        start: float,
        model: Optional[Dict[int, bool]] = None,
        core: Optional[List[int]] = None,
    ) -> SatResult:
        self.stats.time_seconds = time.perf_counter() - start
        if core:
            core = [unpack_literal(q) for q in core]
        return SatResult(status, model=model, stats=self.stats, core=core)


def solve_cnf(
    cnf: Cnf,
    max_conflicts: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> SatResult:
    """One-shot convenience wrapper around :class:`CdclSolver`."""
    return CdclSolver(
        cnf, max_conflicts=max_conflicts, time_limit=time_limit
    ).solve()
