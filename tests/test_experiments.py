"""Tests for the experiment harness (runner, report, figure drivers).

Figure drivers are exercised on tiny custom benchmarks or micro-timeouts
so the test suite stays fast; ``repro experiment all`` (``make
paper-claims``) runs them at full scale and checks the paper's claims.
"""

import pytest

from repro.benchgen.pipeline import make_pipeline
from repro.benchgen.invariant import make_invariant
from repro.benchgen.suite import benchmark_by_name
from repro.engine import engines, registry
from repro.engine.contract import SolveRequest
from repro.experiments import report, runner
from repro.experiments.fig3 import rank_correlation
from repro.experiments.fig4 import best_speedup


class TestRunner:
    def test_run_benchmark_populates_row(self):
        bench = make_pipeline(stages=2, reads=2, seed=0)
        row = runner.run_benchmark(bench, "HYBRID", timeout=20.0)
        assert row.status == "VALID"
        assert row.benchmark == bench.name
        assert row.total_seconds > 0
        assert row.dag_size == bench.dag_size
        assert not row.timed_out

    def test_all_procedures_run(self):
        bench = make_pipeline(stages=2, reads=2, seed=0)
        for procedure in runner.PROCEDURES:
            row = runner.run_benchmark(bench, procedure, timeout=20.0)
            assert row.status == "VALID", procedure

    def test_hybrid_runs_the_papers_rule(self):
        # SepCnt 171 > 100 sends transval's equality-only class to SD in
        # the experiments, and to EIJ everywhere else.
        bench = benchmark_by_name("transval_s3_i4_3")
        paper = runner.PROCEDURES["HYBRID"](bench, 30.0)
        product = registry.get("hybrid").solve(
            SolveRequest(formula=bench.formula, want_countermodel=False)
        )
        assert paper.valid is product.valid is True
        assert paper.stats.counter("encode", "sd_classes") == 1
        assert product.stats.counter("encode", "sd_classes") == 0

    def test_translation_limit_maps_to_timeout_row(self):
        bench = make_invariant(cells=12, seed=1)
        row = runner.run_benchmark(
            bench, "EIJ", timeout=20.0, trans_budget=10
        )
        assert row.status == "TRANSLATION_LIMIT"
        assert row.timed_out

    def test_wrong_verdict_raises(self):
        bench = make_pipeline(stages=2, reads=2, seed=0)
        object.__setattr__  # keep lint quiet
        bench.expected_valid = False  # sabotage
        with pytest.raises(AssertionError):
            runner.run_benchmark(bench, "HYBRID", timeout=20.0)

    @pytest.mark.parametrize(
        "kw, incremental", [({}, True), ({"incremental": False}, False)]
    )
    def test_lazy_refinement_mode(self, monkeypatch, kw, incremental):
        seen = []
        solve = engines.check_validity_lazy

        def spy(formula, **options):
            seen.append(options["incremental"])
            return solve(formula, **options)

        monkeypatch.setattr(engines, "check_validity_lazy", spy)
        bench = make_pipeline(stages=2, reads=2, seed=0)
        row = runner.run_benchmark(bench, "CVC(lazy)", timeout=20.0, **kw)
        assert row.status == "VALID" and row.refinements > 0
        assert seen == [incremental]

    def test_normalized_seconds(self):
        bench = make_pipeline(stages=2, reads=2, seed=0)
        row = runner.run_benchmark(bench, "EIJ", timeout=20.0)
        expected = row.total_seconds / (bench.dag_size / 1000.0)
        assert abs(row.normalized_seconds - expected) < 1e-9


class TestReport:
    def test_table_alignment(self):
        text = report.table(
            ["name", "value"], [["a", 1], ["longer", 23]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        widths = {len(line) for line in lines if line.strip()}
        assert len(widths) <= 2  # header separator may differ slightly

    def test_format_seconds(self):
        assert report.format_seconds(1.234) == "1.23"
        assert report.format_seconds(0.0001) == "0.0001"
        assert report.format_seconds(None) == "-"
        assert report.format_seconds(5.0, timed_out=True) == "timeout"

    def test_ascii_scatter_renders(self):
        text = report.ascii_scatter(
            {"A": [(1, 1), (10, 100)], "B": [(5, 2)]},
            width=30,
            height=10,
            xlabel="xs",
            ylabel="ys",
        )
        assert "legend" in text
        assert "xs" in text and "ys" in text
        assert "x = A" in text

    def test_ascii_scatter_empty(self):
        assert report.ascii_scatter({}) == "(no points)"


class TestFigureHelpers:
    def test_rank_correlation_perfect(self):
        pairs = [(1, 10.0), (2, 20.0), (3, 30.0)]
        assert rank_correlation(pairs) == pytest.approx(1.0)

    def test_rank_correlation_inverse(self):
        pairs = [(1, 30.0), (2, 20.0), (3, 10.0)]
        assert rank_correlation(pairs) == pytest.approx(-1.0)

    def test_rank_correlation_with_ties(self):
        pairs = [(1, 5.0), (1, 5.0), (2, 9.0)]
        value = rank_correlation(pairs)
        assert 0.0 < value <= 1.0 + 1e-9

    def test_rank_correlation_degenerate(self):
        assert rank_correlation([]) == 0.0
        assert rank_correlation([(1, 1.0)]) == 0.0
        assert rank_correlation([(1, 1.0), (1, 2.0)]) == 0.0

    def test_best_speedup(self):
        bench = make_pipeline(stages=2, reads=2, seed=0)
        fast = runner.run_benchmark(bench, "HYBRID", timeout=20.0)
        slow = runner.run_benchmark(bench, "SD", timeout=20.0)
        text = best_speedup([(fast, slow)])
        assert text.startswith("best HYBRID speedup over SD: ")
        assert best_speedup([]) == "best HYBRID speedup over ?: 0.0x"


class TestThresholdExperimentPieces:
    def test_selection_from_synthetic_rows(self):
        from repro.encodings.threshold import select_threshold

        # Shape matching our calibrated suite: fast cluster up to ~80
        # predicates, then translation failures.
        samples = [
            (30, 0.5),
            (44, 1.0),
            (39, 8.0),
            (80, 0.9),
            (54, 170.0),
            (140, 220.0),
        ]
        selection = select_threshold(samples)
        assert selection.threshold == 100

