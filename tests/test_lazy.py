"""Tests for the lazy (CVC-style) refinement procedure."""

import pytest

from repro.logic import builders as b
from repro.logic.semantics import evaluate
from repro.solvers.lazy import check_validity_lazy


class TestVerdicts:
    def test_valid_transitivity(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z))
        result = check_validity_lazy(formula)
        assert result.valid is True
        # The Boolean abstraction alone cannot prove this: refinement
        # rounds must have happened.
        assert result.stats.counter("refine", "iterations") >= 2
        assert result.stats.counter("refine", "conflict_clauses") >= 1

    def test_invalid_with_countermodel(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.le(x, y), b.lt(x, y))
        result = check_validity_lazy(formula)
        assert result.valid is False
        assert not evaluate(formula, result.counterexample)

    def test_uninterpreted_functions(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.implies(b.eq(x, y), b.eq(f(x), f(y)))
        assert check_validity_lazy(formula).valid is True

    def test_propositional_only_needs_one_iteration(self):
        p = b.bconst("P")
        result = check_validity_lazy(b.bor(p, b.bnot(p)))
        assert result.valid is True
        assert result.stats.counter("refine", "iterations") == 1

    def test_integer_density(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.lt(x, y), b.le(b.succ(x), y))
        assert check_validity_lazy(formula).valid is True


class TestRefinementBehaviour:
    def test_conflict_clauses_are_minimal_cycles(self):
        # A formula requiring several distinct cycles to be blocked.
        vs = [b.const("lz%d" % i) for i in range(4)]
        chain = b.band(*[b.lt(vs[i], vs[i + 1]) for i in range(3)])
        formula = b.implies(chain, b.band(
            b.lt(vs[0], vs[2]), b.lt(vs[1], vs[3]), b.lt(vs[0], vs[3])
        ))
        result = check_validity_lazy(formula)
        assert result.valid is True
        checks = result.stats.counter("refine", "theory_checks")
        iterations = result.stats.counter("refine", "iterations")
        assert checks == iterations - 1 or checks == iterations

    def test_iteration_limit(self):
        vs = [b.const("il%d" % i) for i in range(6)]
        chain = b.band(*[b.lt(vs[i], vs[i + 1]) for i in range(5)])
        formula = b.implies(chain, b.lt(vs[0], vs[5]))
        result = check_validity_lazy(formula, max_iterations=1)
        # One iteration cannot both find and refute the abstraction.
        assert result.valid in (None, True)
        limited = check_validity_lazy(formula, max_iterations=100)
        assert limited.valid is True

    def test_no_transitivity_constraints_upfront(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z))
        result = check_validity_lazy(formula)
        # The lazy encoding carries no F_trans: trans_clauses stays 0.
        assert result.stats.counter("encode", "trans_clauses") == 0

    def test_equalities_handled(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(
            b.band(b.eq(x, y), b.eq(y, z)), b.eq(x, z)
        )
        assert check_validity_lazy(formula).valid is True
