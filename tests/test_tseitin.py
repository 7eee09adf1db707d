"""Tseitin transformation tests: equisatisfiability and model agreement."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic import builders as b
from repro.logic.semantics import Interpretation, evaluate
from repro.logic.terms import BoolVar
from repro.logic.traversal import collect_bool_vars
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf, tseitin


def random_prop(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    choice = rng.random()
    if choice < 0.2:
        return b.bnot(random_prop(rng, atoms, depth - 1))
    if choice < 0.4:
        return b.band(
            random_prop(rng, atoms, depth - 1),
            random_prop(rng, atoms, depth - 1),
        )
    if choice < 0.6:
        return b.bor(
            random_prop(rng, atoms, depth - 1),
            random_prop(rng, atoms, depth - 1),
        )
    if choice < 0.8:
        return b.implies(
            random_prop(rng, atoms, depth - 1),
            random_prop(rng, atoms, depth - 1),
        )
    return b.iff(
        random_prop(rng, atoms, depth - 1),
        random_prop(rng, atoms, depth - 1),
    )


def prop_satisfiable(formula):
    """Truth-table satisfiability of a propositional formula."""
    atoms = collect_bool_vars(formula)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        env = Interpretation(
            bools={a.name: v for a, v in zip(atoms, bits)}
        )
        if evaluate(formula, env):
            return True
    return False


class TestBasics:
    def test_constants(self):
        assert solve_cnf(to_cnf(b.true())).is_sat
        assert solve_cnf(to_cnf(b.false())).is_unsat

    def test_single_var(self):
        p = b.bconst("p")
        cnf = to_cnf(p)
        result = solve_cnf(cnf)
        assert result.is_sat
        assert result.model[cnf.lookup(p)]

    def test_negation(self):
        p = b.bconst("p")
        cnf = to_cnf(b.bnot(p))
        result = solve_cnf(cnf)
        assert result.is_sat
        assert not result.model[cnf.lookup(p)]

    def test_contradiction(self):
        p = b.bconst("p")
        assert solve_cnf(to_cnf(b.band(p, b.bnot(p)))).is_unsat

    def test_sharing_encoded_once(self):
        p, q = b.bconst("p"), b.bconst("q")
        shared = b.bor(p, q)
        formula = b.band(b.implies(p, shared), b.implies(shared, q))
        cnf1 = to_cnf(formula)
        # The top-level conjunction is split; each implication costs a
        # definition (3 clauses) plus its asserting unit, and `shared` is
        # defined exactly once (3 clauses): 11 total.  A duplicate
        # definition of `shared` would add 3 more.
        assert len(cnf1.clauses) == 11

    def test_deep_chain_is_not_folded(self):
        atoms = [b.bconst("ts%d" % i) for i in range(64)]
        formula = b.bconst("seed")
        for i in range(200):
            # The iff operands are always distinct (6i = -1 mod 64 has no
            # solution), so no sub-formula folds to a constant.
            formula = b.bor(
                b.band(atoms[i % 64], formula),
                b.iff(atoms[(i * 7) % 64], atoms[(i * 13 + 1) % 64]),
            )
        assert len(to_cnf(formula).clauses) > 100

    def test_model_agrees_with_semantics(self):
        p, q, r = b.bconst("p"), b.bconst("q"), b.bconst("r")
        formula = b.band(b.iff(p, b.bnot(q)), b.implies(q, r), b.bor(p, q))
        cnf = to_cnf(formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        env = Interpretation(
            bools={
                a.name: result.model[cnf.lookup(a)]
                for a in collect_bool_vars(formula)
            }
        )
        assert evaluate(formula, env)

    def test_rejects_non_propositional(self):
        import pytest

        x, y = b.const("x"), b.const("y")
        with pytest.raises(TypeError):
            tseitin(b.eq(x, y))


class TestEquisatisfiability:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_formulas(self, seed):
        import random

        rng = random.Random(seed)
        atoms = [b.bconst("a%d" % i) for i in range(rng.randint(1, 4))]
        atoms = atoms + [b.true(), b.false()]
        formula = random_prop(rng, atoms, rng.randint(1, 4))
        expected = prop_satisfiable(formula)
        cnf = to_cnf(formula)
        result = solve_cnf(cnf)
        assert result.is_sat == expected
        if result.is_sat:
            env = Interpretation(
                bools={
                    a.name: result.model.get(cnf.lookup(a), False)
                    for a in collect_bool_vars(formula)
                }
            )
            assert evaluate(formula, env)


class TestPlaistedGreenbaum:
    """Polarity-aware encoding: fewer clauses, same verdicts, and any
    CNF model still projects onto a model of the original formula."""

    def test_fewer_clauses_on_implication_chain(self):
        p = [b.bconst("p%d" % i) for i in range(6)]
        formula = b.implies(
            b.band(p[0], b.bor(p[1], p[2])),
            b.bor(b.band(p[3], p[4]), p[5]),
        )
        classic = to_cnf(formula, mode="classic")
        pg = to_cnf(formula, mode="pg")
        assert len(pg.clauses) < len(classic.clauses)

    def test_polarity_masks(self):
        from repro.sat.tseitin import BOTH, NEG, POS, compute_polarities

        p, q, r = b.bconst("p"), b.bconst("q"), b.bconst("r")
        conj = b.band(p, q)
        disj = b.bor(q, r)
        neg = b.bnot(disj)
        formula = b.implies(conj, neg)
        masks = compute_polarities([formula])
        assert masks[formula] == POS
        # Antecedent of an implication is flipped ...
        assert masks[conj] == NEG
        # ... the consequent keeps the root polarity, and Not flips again.
        assert masks[neg] == POS
        assert masks[disj] == NEG

    def test_iff_children_are_bipolar(self):
        from repro.sat.tseitin import BOTH, compute_polarities

        p, q = b.bconst("p"), b.bconst("q")
        conj = b.band(p, q)
        disj = b.bor(p, q)
        formula = b.iff(conj, disj)
        masks = compute_polarities([formula])
        assert masks[conj] == BOTH
        assert masks[disj] == BOTH

    def test_unknown_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            to_cnf(b.bconst("p"), mode="nope")

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_pg_equisatisfiable_and_model_projects(self, seed):
        import random

        rng = random.Random(seed)
        atoms = [b.bconst("a%d" % i) for i in range(rng.randint(1, 4))]
        atoms = atoms + [b.true(), b.false()]
        formula = random_prop(rng, atoms, rng.randint(1, 4))
        expected = prop_satisfiable(formula)
        cnf = to_cnf(formula, mode="pg")
        result = solve_cnf(cnf)
        assert result.is_sat == expected
        if result.is_sat:
            # The projection property is what lets the decode stage read
            # countermodels off a PG encoding.
            env = Interpretation(
                bools={
                    a.name: result.model[cnf.lookup(a)]
                    for a in collect_bool_vars(formula)
                }
            )
            assert evaluate(formula, env)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_pg_never_larger_than_classic(self, seed):
        import random

        rng = random.Random(seed)
        atoms = [b.bconst("a%d" % i) for i in range(rng.randint(1, 4))]
        formula = random_prop(rng, atoms, rng.randint(1, 5))
        assert len(to_cnf(formula, mode="pg").clauses) <= len(
            to_cnf(formula, mode="classic").clauses
        )
