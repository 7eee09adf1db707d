"""Deeper hypothesis property tests spanning multiple layers.

These complement the per-module unit tests with whole-pipeline invariants:

* the small-model property of the SD domains (an invalid formula has a
  countermodel whose class values fit the computed ranges);
* decoded countermodels are genuine models in every encoding;
* the encoders' ``F_bool`` is *equivalid* with the input (not merely
  equisatisfiable);
* translation invariance: renaming constants does not change validity;
* negation duality: formula valid implies its negation invalid (on
  satisfiable-negation cases).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import check_validity
from repro.encodings.hybrid import encode_eij, encode_hybrid, encode_sd
from repro.logic import builders as b
from repro.logic.semantics import Interpretation, evaluate
from repro.logic.terms import Var, clear_intern_cache
from repro.logic.traversal import collect_vars, map_terms
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf
from repro.separation.analysis import analyze_separation
from repro.solvers.brute import (
    BruteForceLimitExceeded,
    brute_force_countermodel_sep,
)
from repro.transform.func_elim import eliminate_applications

from helpers import random_sep_formula, random_suf_formula


class TestSmallModelProperty:
    """The paper's §2.1.2 claim: satisfiable separation formulas have
    models polynomially bounded by the formula — concretely, bounded by
    the per-class ranges the SD analysis computes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_countermodel_fits_sd_ranges(self, seed):
        formula = random_sep_formula(seed, max_vars=3, depth=2)
        analysis = analyze_separation(formula)
        try:
            model = brute_force_countermodel_sep(formula, limit=100_000)
        except BruteForceLimitExceeded:
            return
        if model is None:
            return  # valid formula: nothing to check
        # The SD encoding searches values in [0, range-1] per class; it
        # must find *some* countermodel there, so SD must agree the
        # formula is invalid.
        result = check_validity(formula, method="sd")
        assert result.valid is False

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_decoded_sd_model_within_ranges(self, seed):
        formula = random_sep_formula(seed, max_vars=3, depth=2)
        result = check_validity(formula, method="sd")
        if result.valid is not False:
            return
        analysis = analyze_separation(formula)
        model = result.counterexample
        for vclass in analysis.classes:
            for var in vclass.vars:
                value = model.vars[var.name]
                assert 0 <= value < max(vclass.range_size, 1)


class TestEquivalidity:
    """F_bool = (F_trans => F_bvar) must be valid iff the input is."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_f_bool_validity_matches(self, seed):
        formula = random_sep_formula(seed, max_vars=3, depth=2)
        for encoder, kwargs in (
            (encode_sd, {}),
            (encode_eij, {}),
            (encode_hybrid, {}),
            # At 0 every equality-only class takes the bound path.
            (encode_hybrid, {"sep_thold": 0}),
        ):
            encoding = encoder(formula, **kwargs)
            sat_neg = solve_cnf(to_cnf(encoding.check_formula))
            via_encoding = sat_neg.is_unsat
            try:
                expected = (
                    brute_force_countermodel_sep(formula, limit=100_000)
                    is None
                )
            except BruteForceLimitExceeded:
                return
            assert via_encoding == expected, (encoder.__name__, kwargs)


class TestRenamingInvariance:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(seed=st.integers(0, 1_000_000))
    def test_validity_stable_under_renaming(self, seed):
        formula = random_suf_formula(seed, max_vars=3)
        renamed = map_terms(
            formula,
            lambda t: Var("renamed_" + t.name)
            if isinstance(t, Var)
            else t,
        )
        a = check_validity(formula, want_countermodel=False).valid
        c = check_validity(renamed, want_countermodel=False).valid
        assert a == c


class TestNegationDuality:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_not_both_valid(self, seed):
        formula = random_sep_formula(seed, max_vars=3, depth=2)
        a = check_validity(formula, want_countermodel=False).valid
        na = check_validity(b.bnot(formula), want_countermodel=False).valid
        assert not (a and na)


class TestCountermodelsAreModels:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1_000_000), method=st.sampled_from(
        ["sd", "eij", "hybrid", "static"]
    ))
    def test_every_method_decodes_real_countermodels(self, seed, method):
        formula = random_suf_formula(seed)
        result = check_validity(formula, method=method)
        if result.valid is False:
            assert not evaluate(formula, result.counterexample)


class TestFunctionTableConsistency:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_lifted_tables_are_functions(self, seed):
        formula = random_suf_formula(seed, max_funcs=2)
        result = check_validity(formula)
        if result.valid is not False:
            return
        model = result.counterexample
        for symbol, table in model.funcs.items():
            # A dict is a function by construction; check argument arity
            # is consistent within each table.
            arities = {len(args) for args in table}
            assert len(arities) <= 1, symbol
