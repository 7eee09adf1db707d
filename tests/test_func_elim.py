"""Unit tests for function/predicate elimination (Bryant's ITE scheme)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import builders as b
from repro.logic.semantics import Interpretation, evaluate
from repro.logic.terms import FuncApp, Ite, PredApp, Var
from repro.logic.traversal import collect_vars, iter_dag
from repro.solvers.brute import brute_force_valid_sep, sep_domain_bound
from repro.transform.func_elim import eliminate_applications

from helpers import random_suf_formula


def has_applications(formula):
    return any(
        isinstance(n, (FuncApp, PredApp)) for n in iter_dag(formula)
    )


class TestBasicElimination:
    def test_single_occurrence_becomes_constant(self):
        x = b.const("x")
        f = b.func("f")
        formula = b.eq(f(x), x)
        result, info = eliminate_applications(formula)
        assert not has_applications(result)
        assert len(info.func_consts["f"]) == 1
        args, var = info.func_consts["f"][0]
        assert args == (x,)
        assert isinstance(var, Var)

    def test_two_occurrences_build_ite_chain(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.eq(f(x), f(y))
        result, info = eliminate_applications(formula)
        assert not has_applications(result)
        assert len(info.func_consts["f"]) == 2
        # The second occurrence is ITE(y = x, vf1, vf2).
        ites = [n for n in iter_dag(result) if isinstance(n, Ite)]
        assert len(ites) == 1

    def test_same_argument_shares_constant(self):
        x = b.const("x")
        f = b.func("f")
        # f(x) occurs twice syntactically but is one DAG node.
        formula = b.band(b.eq(f(x), x), b.lt(f(x), b.succ(x)))
        result, info = eliminate_applications(formula)
        assert len(info.func_consts["f"]) == 1

    def test_multi_arity(self):
        x, y = b.const("x"), b.const("y")
        g = b.func("g")
        formula = b.eq(g(x, y), g(y, x))
        result, info = eliminate_applications(formula)
        assert not has_applications(result)
        assert len(info.func_consts["g"]) == 2

    def test_nested_applications(self):
        x = b.const("x")
        f = b.func("f")
        formula = b.eq(f(f(x)), x)
        result, info = eliminate_applications(formula)
        assert not has_applications(result)
        assert len(info.func_consts["f"]) == 2

    def test_predicate_elimination(self):
        x, y = b.const("x"), b.const("y")
        p = b.pred_symbol("p")
        formula = b.iff(p(x), p(y))
        result, info = eliminate_applications(formula)
        assert not has_applications(result)
        assert len(info.pred_consts["p"]) == 2

    def test_one_constant_per_distinct_argument(self):
        f = b.func("f")
        xs = [b.const("fe%d" % i) for i in range(30)]
        chain = [b.eq(f(xs[i]), f(xs[i + 1])) for i in range(29)]
        formula = b.implies(b.band(*chain), b.eq(f(xs[0]), f(xs[29])))
        _result, info = eliminate_applications(formula)
        assert len(info.func_consts["f"]) == 30

    def test_no_applications_is_identity(self):
        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.eq(x, y), b.le(x, y))
        result, info = eliminate_applications(formula)
        assert result is formula
        assert not info.func_consts and not info.pred_consts


class TestValidityPreservation:
    """F_suf is valid iff F_sep is valid (Bryant et al.).

    Direct check on small vocabularies: enumerate SUF interpretations over
    a domain sized by the eliminated formula's small-model bound, and
    compare with the separation-level brute-force verdict.
    """

    def _suf_valid_by_enumeration(self, formula, domain, span):
        from repro.logic.traversal import (
            collect_bool_vars,
            collect_func_symbols,
            collect_pred_symbols,
        )

        int_vars = collect_vars(formula)
        bool_vars = collect_bool_vars(formula)
        fsyms = collect_func_symbols(formula)
        psyms = collect_pred_symbols(formula)
        # Only unary symbols with tiny domains are feasible.  Function
        # arguments can be shifted by offsets, so table points must cover
        # the widened window.
        values = range(domain)
        table_points = list(range(-span, domain + span))
        # Materializing a table list for an absent symbol kind would build
        # domain**points tuples for nothing (product(tables, repeat=0)
        # never reads them) — and for domain 8, 18 points that is 8**18.
        func_tables = (
            list(itertools.product(values, repeat=len(table_points)))
            if fsyms
            else []
        )
        pred_tables = (
            list(itertools.product((False, True), repeat=len(table_points)))
            if psyms
            else []
        )

        for ints in itertools.product(values, repeat=len(int_vars)):
            for bools in itertools.product(
                (False, True), repeat=len(bool_vars)
            ):
                for ftabs in itertools.product(
                    func_tables, repeat=len(fsyms)
                ):
                    for ptabs in itertools.product(
                        pred_tables, repeat=len(psyms)
                    ):
                        env = Interpretation(
                            vars={
                                v.name: val
                                for v, val in zip(int_vars, ints)
                            },
                            bools={
                                v.name: val
                                for v, val in zip(bool_vars, bools)
                            },
                            funcs={
                                s: {
                                    (p,): out
                                    for p, out in zip(table_points, tab)
                                }
                                for s, tab in zip(fsyms, ftabs)
                            },
                            preds={
                                s: {
                                    (p,): out
                                    for p, out in zip(table_points, tab)
                                }
                                for s, tab in zip(psyms, ptabs)
                            },
                        )
                        if not evaluate(formula, env):
                            return False
        return True

    #: Direct SUF enumeration budget.  One interpretation costs ~10µs, so
    #: the worst case (a *valid* formula, which cannot exit early on a
    #: countermodel) stays around three seconds.
    ENUMERATION_BUDGET = 300_000

    @pytest.mark.parametrize("seed", range(60))
    def test_validity_agrees_with_direct_suf_enumeration(self, seed):
        from repro.logic.terms import Offset
        from repro.logic.traversal import (
            collect_bool_vars,
            collect_func_symbols,
            collect_pred_symbols,
            iter_dag as _iter,
        )

        formula = random_suf_formula(
            seed + 9000, max_vars=2, max_funcs=1, max_bools=0, depth=2
        )
        f_sep, _ = eliminate_applications(formula)
        domain = sep_domain_bound(f_sep)
        # Upper bound on cumulative argument shifts in the original DAG.
        span = sum(
            abs(n.k) for n in _iter(formula) if isinstance(n, Offset)
        )
        # The enumeration in _suf_valid_by_enumeration walks
        # domain^|vars| * 2^|bools| value tuples, each crossed with one
        # function table per symbol (domain^points entries) and one
        # predicate table per symbol (2^points entries).
        points = domain + 2 * span
        cost = (
            domain ** len(collect_vars(formula))
            * 2 ** len(collect_bool_vars(formula))
            * (domain ** points) ** len(collect_func_symbols(formula))
            * (2 ** points) ** len(collect_pred_symbols(formula))
        )
        if cost > self.ENUMERATION_BUDGET:
            pytest.skip(
                "seed %d needs %d SUF interpretations (domain=%d, %d "
                "table points per function symbol), over the %d budget; "
                "covered indirectly by the sep-level brute oracle and "
                "`repro fuzz`"
                % (seed, cost, domain, points, self.ENUMERATION_BUDGET)
            )
        via_elimination = brute_force_valid_sep(f_sep)
        direct = self._suf_valid_by_enumeration(formula, domain, span)
        # Direct enumeration is over a *restricted* domain: if it finds a
        # countermodel the formula is definitely invalid; if elimination
        # says invalid, the small-model property says the restricted
        # domain must also exhibit a countermodel.
        assert via_elimination == direct
