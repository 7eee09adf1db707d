"""Rendering and claim tests for the threshold-selection and ablation
reports, on synthetic rows."""

import pytest

from repro.benchgen.suite import sample16
from repro.encodings.threshold import select_threshold
from repro.experiments import ablation
from repro.experiments.ablation import (
    SWEEP_CLAIM_SLICE,
    SWEEP_THOLDS,
    StaticRow,
    ranges_claims,
    render_lazy_modes,
    render_sd_ranges,
    render_static_vs_hybrid,
    render_threshold_sweep,
    static_claims,
    sweep_claims,
)
from repro.experiments.runner import RunRow
from repro.experiments import threshold_exp

FAIL = "TRANSLATION_LIMIT"


def row(name, procedure, seconds, status="VALID", **kw):
    return RunRow(
        benchmark=name,
        domain="driver",
        procedure=procedure,
        status=status,
        total_seconds=seconds,
        sep_predicates=40,
        dag_size=100,
        **kw,
    )


SELECTION_SAMPLES = [(30, 0.5), (41, 9.0), (119, 1000.0)]


class TestThresholdRender:
    def test_render_threshold(self):
        selection = select_threshold(SELECTION_SAMPLES)
        rows = [
            ("a", 30, 0.5, "VALID"),
            ("b", 41, 9.0, "VALID"),
            ("c", 119, 1000.0, FAIL),
        ]
        text = threshold_exp.render_threshold(selection, rows)
        assert "SEP_THOLD=100" in text
        assert "n_k=41" in text
        assert "paper: n_k=676" in text
        (claim,) = threshold_exp.claims(selection)
        assert claim.holds and claim.measured == "100"

    def test_claim_fails_on_another_threshold(self):
        # The boundary formula at 141 predicates rounds up to 200.
        selection = select_threshold([(30, 0.5), (141, 9.0), (219, 1000.0)])
        (claim,) = threshold_exp.claims(selection)
        assert not claim.holds and claim.measured == "200"


def sweep(decided_at):
    """The six ABL1 formulas; at each threshold the first
    ``decided_at[t]`` of them are decided, the rest fail."""
    return {
        name: {
            t: row(name, "HYBRID", 1.0, "VALID" if i < decided_at[t] else FAIL)
            for t in SWEEP_THOLDS
        }
        for i, name in enumerate(SWEEP_CLAIM_SLICE)
    }


class TestSweepRender:
    def test_decided_counts(self):
        results = {
            "bench_a": {
                t: row("bench_a", "HYBRID", 1.0) for t in SWEEP_THOLDS
            },
            "bench_b": {
                t: row(
                    "bench_b",
                    "HYBRID",
                    20.0,
                    status=FAIL if t is None else "VALID",
                )
                for t in SWEEP_THOLDS
            },
        }
        text = render_threshold_sweep(results)
        assert "T=inf" in text
        assert "1/2" in text  # the EIJ endpoint decided only one
        assert "2/2" in text

    def test_claim_slice_is_every_third_sample_formula(self):
        assert list(SWEEP_CLAIM_SLICE) == [b.name for b in sample16()[::3]]

    @pytest.mark.parametrize(
        "decided_at, holds",
        [
            ({0: 6, 30: 6, 100: 5, 700: 4, None: 3}, True),
            ({0: 3, 30: 4, 100: 5, 700: 6, None: 6}, True),
            ({0: 6, 30: 5, 100: 4, 700: 4, None: 3}, False),
            ({0: 2, 30: 3, 100: 4, 700: 6, None: 6}, False),
        ],
    )
    def test_claim(self, decided_at, holds):
        (claim,) = sweep_claims(sweep(decided_at))
        assert claim.holds is holds
        assert claim.measured == "%d/6" % decided_at[100]
        assert "driver_s4_2" in claim.statement


def static_rows(hybrid_status):
    """Two non-invariant rows STATIC decides, one invariant row only
    STATIC decides; HYBRID's status on the second non-invariant row is
    the argument."""
    return [
        StaticRow(
            benchmark="x1",
            group="non-invariant",
            hybrid=row("x1", "HYBRID", 0.5),
            static=row("x1", "STATIC", 0.6),
        ),
        StaticRow(
            benchmark="x2",
            group="non-invariant",
            hybrid=row("x2", "HYBRID", 2.0, hybrid_status),
            static=row("x2", "STATIC", 1.0),
        ),
        StaticRow(
            benchmark="inv1",
            group="invariant",
            hybrid=row("inv1", "HYBRID", 20.0, FAIL),
            static=row("inv1", "STATIC", 1.0),
        ),
    ]


class TestStaticRender:
    def test_win_count(self):
        rows = static_rows("VALID")
        text = render_static_vs_hybrid(rows)
        assert "invariant" in text and "timeout" in text
        (claim,) = static_claims(rows)
        # The invariant group, where only STATIC decides, does not count.
        assert claim.holds and claim.measured == "2/2"

    def test_claim_fails(self):
        (claim,) = static_claims(static_rows("TIMEOUT"))
        assert not claim.holds and claim.measured == "1/2"
        assert claim.bound == ">= 2"


class TestLazyModesRender:
    def test_table(self):
        rows = [
            (
                row("ooo_t4_1", "CVC(lazy)", 0.2, refinements=7),
                row("ooo_t4_1", "CVC(lazy)", 0.9, refinements=7),
            )
        ]
        text = render_lazy_modes(rows)
        assert "ABL3" in text and "ooo_t4_1" in text
        assert "0.90" in text


def ranges_rows(ascending_seconds):
    """(uniform, ascending) rows; uniform takes 1 s, or times out on the
    first formula."""
    return [
        (
            row("c0", "SD", 20.0, FAIL) if i == 0 else row("c%d" % i, "SD", 1.0),
            row("c%d" % i, "SD", seconds),
        )
        for i, seconds in enumerate(ascending_seconds)
    ]


class TestSdRangesRender:
    def test_table_and_claim(self):
        rows = ranges_rows([5.0, 0.1, 1.04, 3.0])
        assert "ABL4" in render_sd_ranges(rows)
        (claim,) = ranges_claims(rows)
        # A failed uniform run counts; 1.04 s is within 0.05 s of 1 s.
        assert claim.holds and claim.measured == "3/4"

    def test_claim_fails(self):
        (claim,) = ranges_claims(ranges_rows([5.0, 1.2, 1.1, 3.0]))
        assert not claim.holds and claim.measured == "1/4"


def test_main_prints_each_section_with_its_claims(monkeypatch):
    monkeypatch.setattr(
        ablation,
        "run_threshold_sweep",
        lambda timeout: sweep({0: 6, 30: 6, 100: 5, 700: 4, None: 3}),
    )
    monkeypatch.setattr(
        ablation, "run_static_vs_hybrid", lambda timeout: static_rows("VALID")
    )
    monkeypatch.setattr(ablation, "run_lazy_modes", lambda timeout: [])
    monkeypatch.setattr(
        ablation, "run_sd_ranges", lambda timeout: ranges_rows([0.5, 0.5])
    )
    text, claims = ablation.main(timeout=1.0)
    assert [c.artifact for c in claims] == ["ABL1", "ABL2", "ABL4"]
    assert all(c.holds for c in claims)
    # Each claim line sits under its own table.
    lines = text.splitlines()
    assert lines.index(str(claims[0])) < lines.index(
        "ABL2: feature-based HYBRID vs fixed (static) hybrid"
    )
