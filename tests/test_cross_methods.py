"""The repository's central property test: every decision procedure agrees.

Six independent implementations — brute-force enumeration, the three eager
encodings (SD, EIJ, HYBRID), the static hybrid, the lazy refinement loop,
and the SVC-style case splitter — are run on randomly generated SUF
formulas and must return the same verdict.  Counterexamples produced by
the eager procedures must falsify the original formula under the reference
semantics.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import check_validity
from repro.engine import registry
from repro.engine.contract import SolveRequest
from repro.logic.semantics import evaluate
from repro.solvers.brute import (
    BruteForceLimitExceeded,
    brute_force_valid,
)
from repro.solvers.svclike import check_validity_svc

from helpers import random_sep_formula, random_suf_formula


EAGER_METHODS = ("sd", "eij", "hybrid", "static")


def solve_lazy(formula, **fields):
    """The lazy (CVC-style) engine; ``fields`` are request fields."""
    return registry.get("lazy").solve(SolveRequest(formula=formula, **fields))


def oracle(formula):
    try:
        return brute_force_valid(formula, limit=200_000)
    except BruteForceLimitExceeded:
        return None


class TestEagerAgainstBruteForce:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(seed=st.integers(0, 1_000_000))
    @example(seed=13524)  # offsets add up through an ITE (brute oracle)
    def test_suf_formulas(self, seed):
        formula = random_suf_formula(seed)
        expected = oracle(formula)
        if expected is None:
            return
        for method in EAGER_METHODS:
            result = check_validity(formula, method=method)
            assert result.valid == expected, (method, formula)
            if result.valid is False:
                assert not evaluate(formula, result.counterexample), (
                    method,
                    formula,
                )

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_separation_formulas(self, seed):
        formula = random_sep_formula(seed, max_vars=4, depth=3)
        expected = oracle(formula)
        if expected is None:
            return
        for method in EAGER_METHODS:
            assert check_validity(formula, method=method).valid == expected


class TestBaselinesAgainstBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 1_000_000))
    def test_lazy_and_svc(self, seed):
        formula = random_suf_formula(seed)
        expected = oracle(formula)
        if expected is None:
            return
        lazy = solve_lazy(formula)
        assert lazy.valid == expected, ("lazy", formula)
        if lazy.valid is False and lazy.counterexample is not None:
            assert not evaluate(formula, lazy.counterexample)
        svc = check_validity_svc(formula, max_splits=200_000)
        assert svc.valid == expected, ("svc", formula)


class TestAllSixAgree:
    """A direct pairwise-agreement run on a fixed seed batch (fast, no
    oracle needed — disagreement between any two is a failure).  The
    baselines may hit their resource limits on adversarial random
    formulas; a limited run (``None``) is excluded from the comparison
    rather than treated as a verdict."""

    @pytest.mark.parametrize("seed", range(0, 30))
    def test_verdicts_match(self, seed):
        formula = random_suf_formula(seed * 7919 + 13)
        verdicts = {}
        for method in EAGER_METHODS:
            verdicts[method] = check_validity(
                formula, method=method, want_countermodel=False
            ).valid
        assert len(set(verdicts.values())) == 1, verdicts
        eager = next(iter(verdicts.values()))
        lazy = solve_lazy(
            formula, time_limit=30.0, want_countermodel=False
        ).valid
        if lazy is not None:
            assert lazy == eager
        svc = check_validity_svc(
            formula,
            time_limit=30.0,
            max_splits=100_000,
            want_countermodel=False,
        ).valid
        if svc is not None:
            assert svc == eager
