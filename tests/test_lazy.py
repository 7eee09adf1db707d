"""Tests for the lazy (CVC-style) refinement procedure."""

import pytest

from repro.engine import registry
from repro.engine.contract import SolveRequest
from repro.experiments.ablation import run_lazy_modes
from repro.logic import builders as b
from repro.logic.semantics import evaluate


def solve_lazy(formula, **options):
    """The ``lazy`` engine on ``formula``; ``options`` are its request
    options (``max_iterations``, ``incremental``)."""
    return registry.get("lazy").solve(
        SolveRequest(formula=formula, options=options)
    )


class TestVerdicts:
    def test_valid_transitivity(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z))
        result = solve_lazy(formula)
        assert result.valid is True
        # The Boolean abstraction alone cannot prove this: refinement
        # rounds must have happened.
        assert result.stats.counter("sat", "iterations") >= 2
        assert result.stats.counter("sat", "conflict_clauses") >= 1

    def test_invalid_with_countermodel(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.le(x, y), b.lt(x, y))
        result = solve_lazy(formula)
        assert result.valid is False
        assert not evaluate(formula, result.counterexample)

    def test_uninterpreted_functions(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.implies(b.eq(x, y), b.eq(f(x), f(y)))
        assert solve_lazy(formula).valid is True

    def test_propositional_only_needs_one_iteration(self):
        p = b.bconst("P")
        result = solve_lazy(b.bor(p, b.bnot(p)))
        assert result.valid is True
        assert result.stats.counter("sat", "iterations") == 1

    def test_integer_density(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.lt(x, y), b.le(b.succ(x), y))
        assert solve_lazy(formula).valid is True


class TestRefinementBehaviour:
    def test_conflict_clauses_are_minimal_cycles(self):
        # A formula requiring several distinct cycles to be blocked.
        vs = [b.const("lz%d" % i) for i in range(4)]
        chain = b.band(*[b.lt(vs[i], vs[i + 1]) for i in range(3)])
        formula = b.implies(chain, b.band(
            b.lt(vs[0], vs[2]), b.lt(vs[1], vs[3]), b.lt(vs[0], vs[3])
        ))
        result = solve_lazy(formula)
        assert result.valid is True
        checks = result.stats.counter("sat", "theory_checks")
        iterations = result.stats.counter("sat", "iterations")
        assert checks == iterations - 1 or checks == iterations

    def test_iteration_limit(self):
        vs = [b.const("il%d" % i) for i in range(6)]
        chain = b.band(*[b.lt(vs[i], vs[i + 1]) for i in range(5)])
        formula = b.implies(chain, b.lt(vs[0], vs[5]))
        result = solve_lazy(formula, max_iterations=1)
        # One iteration cannot both find and refute the abstraction.
        assert result.valid in (None, True)
        limited = solve_lazy(formula, max_iterations=100)
        assert limited.valid is True

    def test_no_transitivity_constraints_upfront(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z))
        result = solve_lazy(formula)
        # The lazy encoding carries no F_trans: trans_clauses stays 0.
        assert result.stats.counter("encode", "trans_clauses") == 0

    def test_equalities_handled(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(
            b.band(b.eq(x, y), b.eq(y, z)), b.eq(x, z)
        )
        assert solve_lazy(formula).valid is True


class TestAbl3Baseline:
    """ABL3's iteration counts are the paper's CVC baseline figures
    (results/ablation.txt); both refinement modes must keep them.

    The counts follow each ``=``'s written argument order: an equation
    allocates its bound variables in that order, which sets the SAT
    solver's variable order and so which refinement comes first."""

    def test_iteration_counts(self):
        rows = run_lazy_modes(timeout=20.0)
        assert all(
            inc.status == restart.status == "VALID" for inc, restart in rows
        )
        assert [
            (inc.benchmark, inc.refinements, restart.refinements)
            for inc, restart in rows
        ] == [
            ("ooo_t4_1", 6, 6),
            ("ooo_t5_2", 9, 9),
            ("ooo_t6_3", 13, 13),
            ("ooo_t8_4", 24, 24),
            ("ooo_t15_5", 94, 94),
            ("ooo_t15_6", 94, 94),
        ]
