"""Difference-bound theory solver tests, with hypothesis properties."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.encodings.sepvars import Bound
from repro.logic import builders as b
from repro.logic.terms import Var
from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver
from repro.theory.difference import DifferenceTheory, check_bounds


def v(name):
    return Var(name)


def model_satisfies(model, bounds):
    return all(model[bd.lhs] - model[bd.rhs] <= bd.c for bd in bounds)


class TestCheckBounds:
    def test_empty_is_consistent(self):
        result = check_bounds([])
        assert result.consistent
        assert result.model == {}

    def test_simple_chain(self):
        bounds = [Bound(v("a"), v("b"), 0), Bound(v("b"), v("c"), -1)]
        result = check_bounds(bounds)
        assert result.consistent
        assert model_satisfies(result.model, bounds)

    def test_two_cycle_conflict(self):
        bounds = [Bound(v("a"), v("b"), -1), Bound(v("b"), v("a"), 0)]
        result = check_bounds(bounds)
        assert not result.consistent
        assert sorted(bd.c for bd in result.cycle) == [-1, 0]

    def test_longer_negative_cycle(self):
        bounds = [
            Bound(v("a"), v("b"), 2),
            Bound(v("b"), v("c"), 3),
            Bound(v("c"), v("a"), -6),
        ]
        result = check_bounds(bounds)
        assert not result.consistent
        # The explanation is exactly the negative cycle.
        assert len(result.cycle) == 3
        assert sum(bd.c for bd in result.cycle) < 0

    def test_zero_cycle_is_consistent(self):
        bounds = [Bound(v("a"), v("b"), 1), Bound(v("b"), v("a"), -1)]
        result = check_bounds(bounds)
        assert result.consistent
        assert model_satisfies(result.model, bounds)

    def test_explanation_is_subset_of_input(self):
        bounds = [
            Bound(v("a"), v("b"), 0),
            Bound(v("b"), v("c"), 0),
            Bound(v("c"), v("d"), 0),
            Bound(v("d"), v("a"), -1),
            Bound(v("a"), v("d"), 5),
        ]
        result = check_bounds(bounds)
        assert not result.consistent
        for bd in result.cycle:
            assert bd in bounds

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_systems(self, data):
        num_vars = data.draw(st.integers(2, 6))
        names = [v("rv%d" % i) for i in range(num_vars)]
        num_bounds = data.draw(st.integers(0, 15))
        bounds = []
        for i in range(num_bounds):
            lhs = data.draw(st.integers(0, num_vars - 1))
            rhs = data.draw(st.integers(0, num_vars - 1))
            if lhs == rhs:
                continue
            c = data.draw(st.integers(-4, 4))
            bounds.append(Bound(names[lhs], names[rhs], c))
        result = check_bounds(bounds)
        if result.consistent:
            assert model_satisfies(result.model, bounds)
        else:
            # The cycle must itself be an inconsistent subset.
            assert sum(bd.c for bd in result.cycle) < 0
            # ... and it must chain: rhs of one is lhs of the next.
            for first, second in zip(
                result.cycle, result.cycle[1:] + result.cycle[:1]
            ):
                assert first.lhs is second.rhs


class TestBoundNegation:
    def test_integer_negation(self):
        bd = Bound(v("a"), v("b"), 3)
        neg = bd.negation()
        assert neg.lhs is v("b") and neg.rhs is v("a")
        assert neg.c == -4
        assert neg.negation() == bd


def asserted(atoms, lit):
    """The bound a packed literal over ``atoms`` asserts."""
    bound = atoms[lit >> 1]
    return bound.negation() if lit & 1 else bound


def random_atoms(data, max_atoms):
    """Up to ``max_atoms`` bounds over at most 6 constants, keyed 1..n."""
    num_consts = data.draw(st.integers(2, 6))
    names = [v("tv%d" % i) for i in range(num_consts)]
    pairs = [(x, y) for x in names for y in names if x is not y]
    count = data.draw(st.integers(1, max_atoms))
    atoms = {}
    for var in range(1, count + 1):
        lhs, rhs = data.draw(st.sampled_from(pairs))
        atoms[var] = Bound(lhs, rhs, data.draw(st.integers(-3, 3)))
    return atoms


class TestDifferenceTheory:
    """The in-search checker against Bellman–Ford on the live bounds."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_conflict_exactly_when_live_bounds_are_inconsistent(self, data):
        atoms = random_atoms(data, 12)
        theory = DifferenceTheory(len(atoms), atoms)
        trail = []
        for _ in range(data.draw(st.integers(1, 25))):
            free = sorted(set(atoms) - {q >> 1 for q in trail})
            if free and data.draw(st.booleans()):
                # A propagation fixpoint: one or more new literals.
                batch = data.draw(
                    st.lists(st.sampled_from(free), min_size=1, unique=True)
                )
                for var in batch:
                    trail.append(2 * var + data.draw(st.integers(0, 1)))
            else:
                size = data.draw(st.integers(0, len(trail)))
                del trail[size:]
                theory.backtrack(size)
                assert theory.head <= size
            lemma = theory.check(trail, len(trail))
            live = [asserted(atoms, q) for q in trail[: theory.head]]
            if lemma is None:
                assert theory.head == len(trail)
                assert check_bounds(live).consistent
                continue
            # The checker stopped at the literal that closes the cycle.
            closing = trail[theory.head]
            assert check_bounds(live).consistent
            assert not check_bounds(live + [asserted(atoms, closing)]).consistent
            cycle = [asserted(atoms, q ^ 1) for q in lemma]
            assert all(q ^ 1 in trail[: theory.head + 1] for q in lemma)
            assert sum(bound.c for bound in cycle) < 0
            assert not check_bounds(cycle).consistent
            # The solver backjumps below the closing literal.
            size = data.draw(st.integers(0, theory.head))
            del trail[size:]
            theory.backtrack(size)

    def test_backtrack_pops_the_edges_above_the_new_size(self):
        a, c = v("ta"), v("tc")
        # Packed literal 2v asserts atom v, 2v + 1 its negation.
        theory = DifferenceTheory(2, {1: Bound(a, c, 0), 2: Bound(c, a, 0)})
        assert theory.check([2, 4], 2) is None  # a = c
        assert theory.head == 2
        theory.backtrack(1)
        assert theory.head == 1
        assert theory.check([2, 5], 2) is None  # a - c <= 0, a - c <= -1
        theory.backtrack(0)
        # c - a <= -1 and a - c <= -1: the lemma negates both.
        assert sorted(theory.check([3, 5], 2)) == [2, 4]
        assert theory.head == 1


def bound_cnf(atoms, clauses):
    cnf = Cnf()
    cnf.ensure_vars(len(atoms))
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestSolverWithTheory:
    def test_every_model_closing_a_cycle_is_unsat_in_one_solve(self):
        x, y, z, w = v("sx"), v("sy"), v("sz"), v("sw")
        # (x < y or x < z), y < w, z < w, w < x: either disjunct closes a
        # negative cycle through w.
        atoms = {
            1: Bound(x, y, -1),
            2: Bound(x, z, -1),
            3: Bound(y, w, -1),
            4: Bound(z, w, -1),
            5: Bound(w, x, -1),
        }
        cnf = bound_cnf(atoms, [[1, 2], [3, 4], [3], [4], [5]])
        solver = CdclSolver(cnf, theory=DifferenceTheory(5, atoms))
        result = solver.solve()
        assert result.is_unsat
        assert result.stats.theory_conflicts >= 1
        assert result.stats.conflicts >= result.stats.theory_conflicts
        assert CdclSolver(cnf).solve().is_sat  # the theory decided it

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verdicts_and_models_match_enumeration(self, data):
        # One solver answers a plain solve, then solves under random
        # assumption sets, as an incremental session's solver does.
        atoms = random_atoms(data, 7)
        n = len(atoms)
        literal = st.integers(1, n).flatmap(
            lambda var: st.sampled_from([var, -var])
        )
        clauses = data.draw(
            st.lists(st.lists(literal, min_size=1, max_size=3), max_size=10)
        )
        cnf = bound_cnf(atoms, clauses)
        solver = CdclSolver(cnf, theory=DifferenceTheory(n, atoms))

        def holds(model, lits):
            return all(model[abs(q)] == (q > 0) for q in lits)

        def satisfies(model):
            return all(
                any(model[abs(q)] == (q > 0) for q in c) for c in clauses
            )

        def consistent(model):
            return check_bounds(
                [
                    atoms[var] if model[var] else atoms[var].negation()
                    for var in atoms
                ]
            ).consistent

        def satisfiable(assumptions):
            return any(
                satisfies(model)
                and holds(model, assumptions)
                and consistent(model)
                for model in (
                    dict(zip(range(1, n + 1), values))
                    for values in itertools.product([False, True], repeat=n)
                )
            )

        def check(result, assumptions):
            assert result.is_sat == satisfiable(assumptions)
            if result.is_sat:
                model = result.model
                assert satisfies(model)
                assert holds(model, assumptions)
                assert consistent(model)
            else:
                core = result.core or []
                assert set(core) <= set(assumptions)
                assert not satisfiable(core)

        check(solver.solve(), [])
        for _ in range(data.draw(st.integers(1, 4))):
            assumptions = data.draw(st.lists(literal, max_size=4))
            check(solver.solve_under_assumptions(assumptions), assumptions)
