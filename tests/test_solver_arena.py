"""Arena-representation tests: differential, round-trip, inprocessing.

The SAT core keeps its clauses in a flat int arena.  Its oracle here is
exhaustive enumeration, exact on these instances (at most 12
variables).  These tests pin:

* verdict-for-verdict agreement with enumeration, plus checked models
  and unsat cores (hypothesis differential, plain and under
  assumptions; half the instances are random 3-CNF near the
  satisfiability threshold, where the search learns clauses and
  backjumps),
* the packed-literal and DIMACS round-trips feeding the arena,
* arena structural invariants after a full search (watcher lists point
  at live clauses that really contain the watched literal),
* soundness of the inprocessing passes (vivification and backward
  subsumption only ever leave entailed clauses behind), and
* correctness across ``solve_under_assumptions`` after an explicit
  arena compaction.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.sat.cnf import (
    Cnf,
    pack_clause,
    pack_literal,
    unpack_clause,
    unpack_literal,
)
from repro.sat.dimacs import dumps, loads
from repro.sat.solver import (
    FLAG_DEAD,
    HEADER,
    SAT,
    UNSAT,
    CdclSolver,
    solve_cnf,
)


def make_cnf(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    cnf.add_clauses(clauses)
    return cnf


def brute_force_sat(num_vars, clauses):
    """True iff some assignment satisfies ``clauses`` (enumeration).

    Bit ``v - 1`` of an assignment holds variable ``v``.  Each clause is
    a positive and a negative mask: it holds when the assignment sets a
    bit of the first or clears a bit of the second.
    """
    masks = []
    for clause in clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << num_vars) - 1
    for bits in range(full + 1):
        cleared = full ^ bits
        for pos, neg in masks:
            if not (pos & bits or neg & cleared):
                break
        else:
            return True
    return False


def implied_by(num_vars, clauses, lits):
    """True iff ``clauses`` entail the clause ``lits`` (brute force)."""
    negated = [[-lit] for lit in lits]
    return not brute_force_sat(num_vars, clauses + negated)


def random_instance(rng, max_vars=7, max_clauses=20, max_width=4):
    num_vars = rng.randint(1, max_vars)
    clauses = [
        [
            rng.choice([1, -1]) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, max_width))
        ]
        for _ in range(rng.randint(1, max_clauses))
    ]
    return num_vars, clauses


def hard_instance(rng):
    """Random 3-CNF on 10-12 variables, 3.8-4.6 clauses per variable.

    Near the satisfiability threshold the search learns clauses and
    backjumps, which the small ``random_instance`` shapes rarely make
    it do; at this size enumeration is still cheap.
    """
    num_vars = rng.randint(10, 12)
    num_clauses = round(num_vars * rng.uniform(3.8, 4.6))
    clauses = [
        [
            rng.choice([1, -1]) * v
            for v in rng.sample(range(1, num_vars + 1), 3)
        ]
        for _ in range(num_clauses)
    ]
    return num_vars, clauses


def differential_instance(rng, seed):
    """An odd ``seed`` draws a ``hard_instance``, an even one a small one."""
    if seed % 2:
        return hard_instance(rng)
    return random_instance(rng)


def satisfies(model, clauses):
    return all(
        any((lit > 0) == model[abs(lit)] for lit in clause)
        for clause in clauses
    )


class TestPackedLiterals:
    @given(lit=st.integers(1, 10_000))
    def test_round_trip_both_signs(self, lit):
        assert unpack_literal(pack_literal(lit)) == lit
        assert unpack_literal(pack_literal(-lit)) == -lit

    @given(lit=st.integers(1, 10_000))
    def test_negation_is_xor(self, lit):
        assert pack_literal(-lit) == pack_literal(lit) ^ 1
        assert pack_literal(lit) >> 1 == lit

    def test_clause_round_trip(self):
        clause = [3, -1, 7, -7]
        assert unpack_clause(pack_clause(clause)) == clause


class TestDimacsRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_clauses_survive_dumps_loads(self, seed):
        rng = random.Random(seed)
        num_vars, clauses = random_instance(rng)
        cnf = make_cnf(num_vars, clauses)
        restored = loads(dumps(cnf))
        assert restored.num_vars == cnf.num_vars
        # add_clause canonicalises (dedup, tautology drop), so compare
        # the stored form, which dumps writes verbatim.
        assert restored.clauses == cnf.clauses

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_verdict_unchanged_by_round_trip(self, seed):
        rng = random.Random(seed)
        num_vars, clauses = random_instance(rng)
        cnf = make_cnf(num_vars, clauses)
        direct = solve_cnf(cnf)
        round_tripped = solve_cnf(loads(dumps(cnf)))
        assert direct.status == round_tripped.status


class TestArenaVsEnumeration:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_statuses_agree_and_models_check(self, seed):
        rng = random.Random(seed)
        num_vars, clauses = differential_instance(rng, seed)
        result = CdclSolver(make_cnf(num_vars, clauses)).solve()
        sat = brute_force_sat(num_vars, clauses)
        assert result.status == (SAT if sat else UNSAT)
        if result.is_sat:
            assert satisfies(result.model, clauses)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_agreement_under_assumptions(self, seed):
        rng = random.Random(seed)
        num_vars, clauses = differential_instance(rng, seed)
        solver = CdclSolver(make_cnf(num_vars, clauses))
        for _ in range(3):
            assumptions = [
                rng.choice([1, -1]) * v
                for v in rng.sample(
                    range(1, num_vars + 1), rng.randint(0, num_vars)
                )
            ]
            units = [[lit] for lit in assumptions]
            result = solver.solve_under_assumptions(assumptions)
            sat = brute_force_sat(num_vars, clauses + units)
            assert result.status == (SAT if sat else UNSAT)
            if result.is_sat:
                assert satisfies(result.model, clauses + units)
            else:
                # The core is real: enumeration finds no model of it, and
                # replaying it on a fresh solver reproduces UNSAT.
                assert set(result.core) <= set(assumptions)
                core_units = [[lit] for lit in result.core]
                assert not brute_force_sat(num_vars, clauses + core_units)
                replay = CdclSolver(make_cnf(num_vars, clauses))
                assert replay.solve_under_assumptions(result.core).is_unsat


class TestArenaInvariants:
    def _check_invariants(self, solver):
        arena = solver.arena
        # Stride-walk: every slot is covered by a header + literals.
        pos = 0
        refs = set()
        while pos < len(arena):
            size = arena[pos]
            assert size >= 1
            refs.add(pos)
            pos += HEADER + size
        assert pos == len(arena)
        # Watcher lists reference live clauses, and the watched literal
        # really sits in one of the clause's first two slots.
        for lit, (blockers, wrefs) in enumerate(
            zip(solver.watch_blockers, solver.watch_refs)
        ):
            assert len(blockers) == len(wrefs)
            for ref in wrefs:
                assert ref in refs
                assert arena[ref + 1] != FLAG_DEAD
                watched = (arena[ref + HEADER], arena[ref + HEADER + 1])
                assert lit in watched
        for lit, brefs in enumerate(solver.bin_refs):
            assert len(solver.bin_blockers[lit]) == len(brefs)
            for ref in brefs:
                assert ref in refs
                assert arena[ref] == 2
                assert arena[ref + 1] != FLAG_DEAD
                watched = (arena[ref + HEADER], arena[ref + HEADER + 1])
                assert lit in watched

    def test_invariants_after_search(self):
        rng = random.Random(11)
        num_vars, clauses = random_instance(
            rng, max_vars=8, max_clauses=30
        )
        solver = CdclSolver(make_cnf(num_vars, clauses))
        solver.solve()
        self._check_invariants(solver)

    def test_invariants_after_reduce_and_compact(self):
        rng = random.Random(13)
        num_vars = 8
        clauses = [
            [
                rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(3)
            ]
            for _ in range(60)
        ]
        solver = CdclSolver(make_cnf(num_vars, clauses))
        solver.solve()
        solver._reduce_db()
        solver._compact()
        self._check_invariants(solver)
        # The solver keeps working on the compacted arena.
        expected = brute_force_sat(num_vars, clauses)
        assert solver.solve().is_sat == expected


def conflict_rich_clauses():
    """All sign combinations over vars 1..3 force 4 — learning-heavy."""
    clauses = []
    for a in (1, -1):
        for b in (2, -2):
            for c in (3, -3):
                clauses.append([a, b, c, 4])
    return clauses


class TestInprocessingSoundness:
    def test_inprocess_leaves_only_entailed_clauses(self):
        clauses = conflict_rich_clauses()
        solver = CdclSolver(make_cnf(4, clauses))
        assert solver.solve_under_assumptions([-4]).is_unsat
        assert solver._inprocess() is True
        for lits in solver.learned_signed():
            assert implied_by(4, clauses, lits)

    def test_verdicts_stable_across_inprocessing(self):
        rng = random.Random(29)
        num_vars = 8
        clauses = [
            [
                rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(2, 4))
            ]
            for _ in range(40)
        ]
        solver = CdclSolver(make_cnf(num_vars, clauses))
        for trial in range(5):
            assumptions = [
                rng.choice([1, -1]) * v
                for v in rng.sample(range(1, num_vars + 1), 2)
            ]
            expected = brute_force_sat(
                num_vars, clauses + [[lit] for lit in assumptions]
            )
            result = solver.solve_under_assumptions(assumptions)
            assert result.is_sat == expected
            # Inprocess between calls: vivification/subsumption must
            # never change any later verdict.
            assert solver._inprocess() is True

    def test_subsumed_clause_removed_and_subsuming_kept(self):
        from repro.sat.solver import FLAG_LEARNED

        cnf = make_cnf(5, [[1, 2, 3, 4, 5]])
        solver = CdclSolver(cnf)
        short = solver._alloc(pack_clause([1, 2]), FLAG_LEARNED, 2)
        long = solver._alloc(pack_clause([1, 2, 3]), FLAG_LEARNED, 3)
        for ref in (short, long):
            solver.learned_refs.append(ref)
            solver._watch_clause(ref)
        solver._subsume_learned()
        kept = {tuple(c) for c in solver.learned_signed()}
        assert (1, 2) in kept
        assert (1, 2, 3) not in kept
        assert solver.stats.subsumed_clauses >= 1

    def test_vivification_shortens_redundant_clause(self):
        # With units 1 and 2 in the database, the learned clause
        # (-1, -2, 3) vivifies: -1 and -2 are root-false, so it must
        # shrink to the unit 3 (or be satisfied outright) — and the
        # shrunken form stays entailed.
        from repro.sat.solver import FLAG_LEARNED

        clauses = [[1], [2]]
        solver = CdclSolver(make_cnf(3, clauses))
        assert solver.solve().is_sat
        ref = solver._alloc(pack_clause([-1, -2, 3]), FLAG_LEARNED, 3)
        solver.learned_refs.append(ref)
        solver._watch_clause(ref)
        assert solver._inprocess() is True
        result = solver.solve()
        assert result.is_sat
        assert result.model[3] is True

    def test_root_contradiction_detected_by_vivify(self):
        from repro.sat.solver import FLAG_LEARNED

        solver = CdclSolver(make_cnf(3, [[1], [2], [3]]))
        assert solver.solve().is_sat
        # All literals are root-false: vivification empties the clause
        # (binary clauses are exempt from vivification, so use three).
        ref = solver._alloc(pack_clause([-1, -2, -3]), FLAG_LEARNED, 3)
        solver.learned_refs.append(ref)
        solver._watch_clause(ref)
        assert solver._inprocess() is False
        assert solver.solve().is_unsat


class TestRetentionAcrossCompaction:
    def test_assumption_solving_correct_after_compaction(self):
        rng = random.Random(43)
        num_vars = 8
        clauses = [
            [
                rng.choice([1, -1]) * rng.randint(1, num_vars)
                for _ in range(rng.randint(2, 4))
            ]
            for _ in range(45)
        ]
        solver = CdclSolver(make_cnf(num_vars, clauses))
        for trial in range(6):
            assumptions = [
                rng.choice([1, -1]) * v
                for v in rng.sample(range(1, num_vars + 1), 2)
            ]
            expected = brute_force_sat(
                num_vars, clauses + [[lit] for lit in assumptions]
            )
            result = solver.solve_under_assumptions(assumptions)
            assert result.is_sat == expected
            # Kill half the learned DB and force a full compaction:
            # every stored ref (watchers, reasons, learned list) must
            # be remapped consistently.
            solver._reduce_db()
            solver._compact()

    def test_learned_clauses_survive_compaction(self):
        clauses = conflict_rich_clauses()
        solver = CdclSolver(make_cnf(4, clauses))
        assert solver.solve_under_assumptions([-4]).is_unsat
        before = sorted(
            tuple(sorted(c)) for c in solver.learned_signed()
        )
        assert before  # the instance forces real learning
        solver._compact()
        after = sorted(
            tuple(sorted(c)) for c in solver.learned_signed()
        )
        assert before == after
        # And the compacted state still solves correctly.
        assert solver.solve_under_assumptions([4]).is_sat
        assert solver.solve().is_sat
