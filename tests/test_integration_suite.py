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
)
from repro.core import check_validity


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
        result = decide(bench, "hybrid")
        assert result.status == "TRANSLATION_LIMIT"

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
        bench = benchmark_by_name("ooo_t8_4")
        hybrid0 = decide(bench, "hybrid", sep_thold=0)
        sd = decide(bench, "sd")
        assert hybrid0.valid == sd.valid is True
        assert hybrid0.stats.counter("encode", "sd_classes") == (
            sd.stats.counter("encode", "sd_classes")
        )

    def test_threshold_infinity_matches_eij(self):
        bench = benchmark_by_name("loadstore_e7_p14_3")
        hybrid_inf = decide(bench, "hybrid", sep_thold=10**9)
        eij = decide(bench, "eij")
        assert hybrid_inf.valid == eij.valid is True
        assert hybrid_inf.stats.counter("encode", "eij_classes") == (
            eij.stats.counter("encode", "eij_classes")
        )
