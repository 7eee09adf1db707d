"""End-to-end tests for the public decision procedure."""

import pytest

from repro.core import check_validity
from repro.core.status import Status
from repro.logic import builders as b
from repro.logic.semantics import evaluate


METHODS = ("hybrid", "sd", "eij", "static")


class TestKnownFormulas:
    @pytest.mark.parametrize("method", METHODS)
    def test_functional_consistency(self, method):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        result = check_validity(
            b.implies(b.eq(x, y), b.eq(f(x), f(y))), method=method
        )
        assert result.status == Status.VALID
        assert result.valid is True

    @pytest.mark.parametrize("method", METHODS)
    def test_ordering_chain(self, method):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(
            b.band(b.lt(x, y), b.lt(y, z)), b.lt(b.succ(x), b.succ(z))
        )
        assert check_validity(formula, method=method).valid

    @pytest.mark.parametrize("method", METHODS)
    def test_antisymmetry(self, method):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(
            b.band(b.le(x, y), b.le(y, x)), b.eq(x, y)
        )
        assert check_validity(formula, method=method).valid

    @pytest.mark.parametrize("method", METHODS)
    def test_integer_density_used(self, method):
        # x < y implies x + 1 <= y over the integers (false over rationals)
        # — the property that kept the paper from running SVC/CVC on the
        # invariant benchmarks.
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.lt(x, y), b.le(b.succ(x), y))
        assert check_validity(formula, method=method).valid

    @pytest.mark.parametrize("method", METHODS)
    def test_invalid_with_countermodel(self, method):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.implies(b.eq(f(x), f(y)), b.eq(x, y))
        result = check_validity(formula, method=method)
        assert result.status == Status.INVALID
        model = result.counterexample
        assert model is not None
        assert not evaluate(formula, model)

    @pytest.mark.parametrize("method", METHODS)
    def test_boolean_structure(self, method):
        p, q = b.bconst("P"), b.bconst("Q")
        x, y = b.const("x"), b.const("y")
        formula = b.iff(
            b.implies(p, b.lt(x, y)),
            b.bor(b.bnot(p), b.lt(x, y)),
        )
        assert check_validity(formula, method=method).valid
        assert not check_validity(b.iff(p, q), method=method).valid

    @pytest.mark.parametrize("method", METHODS)
    def test_ite_reasoning(self, method):
        x, y = b.const("x"), b.const("y")
        maxi = b.ite(b.lt(x, y), y, x)
        formula = b.band(b.le(x, maxi), b.le(y, maxi))
        assert check_validity(formula, method=method).valid

    @pytest.mark.parametrize("method", METHODS)
    def test_predicate_consistency(self, method):
        x, y = b.const("x"), b.const("y")
        p = b.pred_symbol("p")
        formula = b.implies(
            b.band(b.eq(x, y), p(x)), p(y)
        )
        assert check_validity(formula, method=method).valid


class TestLimitsAndErrors:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            check_validity(b.true(), method="magic")

    def test_trans_budget_reports_translation_limit(self):
        # A dense difference web whose transitivity closure exceeds the
        # tiny budget.
        vs = [b.const("tb%d" % i) for i in range(8)]
        parts = []
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                parts.append(b.le(vs[i], b.offset(vs[j], i - j + 2)))
        formula = b.bnot(b.band(*parts))
        result = check_validity(formula, method="eij", trans_budget=5)
        assert result.status == Status.TRANSLATION_LIMIT
        assert result.valid is None

    def test_sat_time_limit_reports_unknown(self):
        # Five pigeons in a window of four holes: valid, and SD's search
        # needs hundreds of conflicts.  SD's encoding never reads the
        # time limit, so a zero limit stops the search itself, at the
        # solver's first clock check (every 64 conflicts).
        lo = b.const("lo")
        pigeons = [b.const("p%d" % i) for i in range(5)]
        window = b.band(*[
            b.band(b.le(lo, p), b.lt(p, b.offset(lo, 4))) for p in pigeons
        ])
        clash = b.bor(*[
            b.eq(p, q)
            for i, p in enumerate(pigeons)
            for q in pigeons[i + 1:]
        ])
        formula = b.implies(window, clash)
        assert check_validity(formula, method="sd").status == Status.VALID
        result = check_validity(formula, method="sd", time_limit=0.0)
        assert result.status == Status.UNKNOWN
        assert result.stats.counter("sat", "conflicts") == 64

    def test_stats_populated(self):
        x, y = b.const("x"), b.const("y")
        result = check_validity(b.implies(b.lt(x, y), b.le(x, y)))
        stats = result.stats
        assert stats.method == "HYBRID"
        assert stats.counter("func-elim", "dag_suf") > 0
        assert stats.counter("func-elim", "dag_sep") > 0
        assert stats.counter("cnf", "vars") > 0
        assert stats.counter("cnf", "clauses") > 0
        assert stats.total_seconds >= 0
        assert stats.sat is not None

    def test_trivial_formulas(self):
        assert check_validity(b.true()).valid is True
        assert check_validity(b.false()).valid is False
        p = b.bconst("P")
        assert check_validity(b.bor(p, b.bnot(p))).valid is True


class TestCountermodelQuality:
    @pytest.mark.parametrize("method", ("hybrid", "sd", "eij"))
    def test_countermodel_has_original_vocabulary(self, method):
        x, y = b.const("x"), b.const("y")
        g = b.func("g")
        p = b.bconst("P")
        formula = b.implies(
            p, b.implies(b.lt(x, y), b.eq(g(x), g(y)))
        )
        result = check_validity(formula, method=method)
        assert result.valid is False
        model = result.counterexample
        assert "x" in model.vars and "y" in model.vars
        assert "P" in model.bools
        assert model.vars["x"] < model.vars["y"]
        assert "g" in model.funcs

    def test_want_countermodel_false_skips_decoding(self):
        x, y = b.const("x"), b.const("y")
        result = check_validity(
            b.eq(x, y), want_countermodel=False
        )
        assert result.valid is False
        assert result.counterexample is None
