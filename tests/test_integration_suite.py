"""Suite-level integration regression: the evaluation's load-bearing facts.

A compact, fast subset of the full experiment claims, pinned as ordinary
tests so regressions in the encoders/benchmarks surface in `pytest tests/`
without running the multi-minute benchmark harness.
"""

import pytest

from repro.benchgen.suite import (
    benchmark_by_name,
    invariant_suite,
    non_invariant_suite,
    suite,
)
from repro.core import check_validity
from repro.encodings.hybrid import (
    DEFAULT_SEP_THOLD,
    DEFAULT_TRANS_BUDGET,
    LAZY,
    choose_method,
)
from repro.logic.semantics import evaluate
from repro.separation.analysis import analyze_separation
from repro.transform.func_elim import eliminate_applications


def decide(bench, method, **kw):
    kw.setdefault("time_limit", 30.0)
    return check_validity(
        bench.formula, method=method, want_countermodel=False, **kw
    )


class TestInvariantRegime:
    """One representative invariant benchmark shows the Figure-5 facts."""

    @pytest.fixture(scope="class")
    def bench(self):
        return invariant_suite()[2]  # cells=12

    def test_eij_translation_explodes(self, bench):
        result = decide(bench, "eij")
        assert result.status == "TRANSLATION_LIMIT"

    def test_hybrid_default_follows_eij(self, bench):
        # The paper's HYBRID sends the large class with inequalities to
        # EIJ and trips the budget; the product rule sends it to LAZY.
        result = decide(bench, "hybrid", options={"paper_rule": True})
        assert result.status == "TRANSLATION_LIMIT"
        product = decide(bench, "hybrid")
        assert product.valid is True
        assert product.stats.counter("encode", "lazy_classes") == 1
        assert product.stats.counter("encode", "trans_clauses") == 0

    def test_sd_completes(self, bench):
        result = decide(bench, "sd")
        assert result.valid is True

    def test_lowered_threshold_switches_to_sd(self, bench):
        result = decide(bench, "hybrid", sep_thold=30)
        assert result.valid is True


class TestNonInvariantRegime:
    def test_equality_heavy_eij_fast_sd_struggles(self):
        bench = benchmark_by_name("cache_c5_4")
        eij = decide(bench, "eij")
        assert eij.valid is True
        assert eij.stats.total_seconds < 8.0
        hybrid = decide(bench, "hybrid")
        assert hybrid.valid is True

    def test_offset_heavy_eij_fails_hybrid_switches(self):
        bench = benchmark_by_name("driver_s16_6")
        eij = decide(bench, "eij")
        assert eij.status == "TRANSLATION_LIMIT"
        hybrid = decide(bench, "hybrid")
        assert hybrid.valid is True  # SepCnt > threshold -> SD class

    def test_hybrid_decides_a_cross_section(self):
        picks = non_invariant_suite()[::9]
        for bench in picks:
            result = decide(bench, "hybrid")
            assert result.valid is True, bench.name


class TestThresholdEndpoints:
    def test_threshold_zero_matches_sd(self):
        # §4's endpoint identity is a property of the paper's rule.
        bench = benchmark_by_name("ooo_t8_4")
        hybrid0 = decide(
            bench, "hybrid", sep_thold=0, options={"paper_rule": True}
        )
        sd = decide(bench, "sd")
        assert hybrid0.valid == sd.valid is True
        assert hybrid0.stats.counter("encode", "sd_classes") == (
            sd.stats.counter("encode", "sd_classes")
        )

    def test_threshold_zero_keeps_small_equality_class_eij(self):
        # The product rule at 0: the class with inequalities goes to LAZY
        # (EIJ atoms, so it counts among the EIJ classes), the 3-constant
        # equality-only class (bound 3 clauses) to EIJ.
        bench = benchmark_by_name("ooo_t8_4")
        hybrid0 = decide(bench, "hybrid", sep_thold=0)
        assert hybrid0.valid is True
        assert hybrid0.stats.counter("encode", "sd_classes") == 0
        assert hybrid0.stats.counter("encode", "eij_classes") == 2
        assert hybrid0.stats.counter("encode", "lazy_classes") == 1
        assert hybrid0.stats.counter("encode", "eq_bound_classes") == 1

    @pytest.mark.parametrize(
        "name,options,eq_bound,sd,lazy",
        [
            ("transval_s3_i4_3", {}, 1, 0, 0),
            ("ooo_t16_7", {}, 0, 0, 1),
            ("transval_s3_i4_3", {"paper_rule": True}, 0, 1, 0),
        ],
    )
    def test_encode_record_says_why(self, name, options, eq_bound, sd, lazy):
        # transval's class (19 constants, SepCnt 171) is equality-only;
        # ooo's class above the threshold has inequalities and offsets,
        # so the product rule refines it lazily.
        result = decide(benchmark_by_name(name), "hybrid", options=options)
        assert result.valid is True
        assert result.stats.counter("encode", "eq_bound_classes") == eq_bound
        assert result.stats.counter("encode", "sd_classes") == sd
        assert result.stats.counter("encode", "lazy_classes") == lazy

    def test_threshold_infinity_matches_eij(self):
        bench = benchmark_by_name("loadstore_e7_p14_3")
        hybrid_inf = decide(bench, "hybrid", sep_thold=10**9)
        eij = decide(bench, "eij")
        assert hybrid_inf.valid == eij.valid is True
        assert hybrid_inf.stats.counter("encode", "eij_classes") == (
            eij.stats.counter("encode", "eij_classes")
        )


class TestProductHybrid:
    """The product HYBRID (the rule ``check`` runs) on the whole suite."""

    @pytest.fixture(scope="class")
    def benches(self):
        return suite(valid=True) + suite(valid=False)

    def test_decides_every_suite_query(self, benches):
        for bench in benches:
            outcome = check_validity(bench.formula, time_limit=30.0)
            assert outcome.valid == bench.expected_valid, (
                bench.name,
                outcome.status,
            )
            if not bench.expected_valid:
                assert not evaluate(bench.formula, outcome.counterexample), (
                    bench.name
                )

    def test_paper_rule_never_picks_lazy(self, benches):
        for bench in benches:
            f_sep, _ = eliminate_applications(bench.formula)
            for vclass in analyze_separation(f_sep).classes:
                method = choose_method(
                    vclass,
                    DEFAULT_SEP_THOLD,
                    DEFAULT_TRANS_BUDGET,
                    paper_rule=True,
                    lazy=True,
                )
                assert method != LAZY, bench.name
