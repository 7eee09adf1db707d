"""Tests for the brute-force oracle itself (domain bounds, limits)."""

import pytest

from repro.logic import builders as b
from repro.logic.parser import parse_formula
from repro.solvers.brute import (
    BruteForceLimitExceeded,
    brute_force_countermodel_sep,
    brute_force_valid,
    brute_force_valid_sep,
    sep_domain_bound,
)
from repro.logic.semantics import evaluate


class TestDomainBound:
    def test_no_vars(self):
        assert sep_domain_bound(b.true()) == 1

    def test_offset_free(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.band(b.lt(x, y), b.lt(y, z))
        # 3 vars, no offsets: (3-1)*(0+... 2s+1=1) + 1 = 3.
        assert sep_domain_bound(formula) == 3

    def test_with_offsets(self):
        x, y = b.const("x"), b.const("y")
        formula = b.lt(b.offset(x, -2), y)
        # 2 vars, s=2: (2-1)*(5)+1 = 6.
        assert sep_domain_bound(formula) == 6

    def test_offsets_add_up_through_an_ite(self):
        # The outer -2 reaches the ITE's v1 + -2 leaf as v1 - 4: s=4,
        # (2-1)*(9)+1 = 10.  Every countermodel has v1 = v0 + 6 (such
        # as v0 = 1, v1 = 7), so the window must reach 6.
        formula = parse_formula(
            "(not (= (+ v0 2) (+ (ite (=> (< v1 v0) (= v0 v1))"
            " (+ v1 -2) v0) -2)))"
        )
        assert sep_domain_bound(formula) == 10
        assert not brute_force_valid(formula)
        model = brute_force_countermodel_sep(formula)
        assert model is not None and not evaluate(formula, model)


class TestValidity:
    def test_simple_valid(self):
        x, y = b.const("x"), b.const("y")
        assert brute_force_valid_sep(b.implies(b.lt(x, y), b.le(x, y)))

    def test_simple_invalid(self):
        x, y = b.const("x"), b.const("y")
        assert not brute_force_valid_sep(b.lt(x, y))

    def test_domain_bound_is_tight_enough(self):
        # Valid only over the integers with density: x < y -> x + 1 <= y.
        x, y = b.const("x"), b.const("y")
        assert brute_force_valid_sep(
            b.implies(b.lt(x, y), b.le(b.succ(x), y))
        )
        # Needs distinct values far apart: invalid, countermodel exists
        # within the bound.
        assert not brute_force_valid_sep(
            b.implies(b.lt(x, y), b.lt(b.succ(x), y))
        )

    def test_countermodel_falsifies(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.le(x, y), b.lt(x, y))
        model = brute_force_countermodel_sep(formula)
        assert model is not None
        assert not evaluate(formula, model)

    def test_rejects_applications(self):
        x = b.const("x")
        f = b.func("f")
        with pytest.raises(ValueError):
            brute_force_valid_sep(b.eq(f(x), x))

    def test_suf_wrapper_eliminates(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        assert brute_force_valid(
            b.implies(b.eq(x, y), b.eq(f(x), f(y)))
        )
        assert not brute_force_valid(b.eq(f(x), f(y)))


class TestLimits:
    def test_limit_exceeded(self):
        vs = [b.const("bf%d" % i) for i in range(10)]
        formula = b.band(*[b.lt(vs[i], vs[i + 1]) for i in range(9)])
        with pytest.raises(BruteForceLimitExceeded):
            brute_force_valid_sep(formula, limit=100)

    def test_bool_vars_counted(self):
        ps = [b.bconst("bb%d" % i) for i in range(4)]
        x = b.const("x")
        formula = b.bor(*ps, b.eq(x, x))
        # 1 var * 2^4 bools = 16 interpretations; fine under the limit.
        assert brute_force_valid_sep(formula, limit=32)
