"""Tests for the parallel portfolio driver and the batch API."""

import multiprocessing
import time

import pytest

from repro.core.status import Status
from repro.engine import registry
from repro.engine.base import Engine
from repro.engine.contract import SolveOutcome, SolveRequest
from repro.engine.portfolio import (
    _pick_winner,
    default_members,
    solve_batch,
    solve_portfolio,
)
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate

VALID_F = "(=> (and (< x y) (< y z)) (< x z))"
INVALID_F = "(= x y)"
UF_VALID_F = "(=> (= a b) (= (f a) (f b)))"

FORMULAS = [VALID_F, INVALID_F, UF_VALID_F, "(< x (+ x 1))", "(< (+ x 1) x)"]
EXPECTED = [True, False, True, True, False]


class SleepyEngine(Engine):
    """Decides nothing for 30 s — the designated race loser."""

    name = "sleepy-test"

    def solve(self, request):
        deadline = time.time() + 30.0
        while time.time() < deadline:
            time.sleep(0.05)
        return SolveOutcome(engine=self.name, status=Status.UNKNOWN)


class CrashyEngine(Engine):
    name = "crashy-test"

    def solve(self, request):
        raise RuntimeError("intentional test crash")


@pytest.fixture
def sleepy():
    registry.register(SleepyEngine())
    try:
        yield
    finally:
        registry.unregister("sleepy-test")


@pytest.fixture
def crashy():
    registry.register(CrashyEngine())
    try:
        yield
    finally:
        registry.unregister("crashy-test")


def request_for(text, **kw):
    return SolveRequest(formula=parse_formula(text), **kw)


class TestSequentialPortfolio:
    @pytest.mark.parametrize(
        "text,expected", list(zip(FORMULAS, EXPECTED))
    )
    def test_agreement_with_hybrid(self, text, expected):
        request = request_for(text)
        single = registry.get("hybrid").solve(request)
        combined = solve_portfolio(request, parallel=False)
        assert combined.valid == expected
        assert combined.valid == single.valid
        assert combined.engine == "portfolio"
        assert combined.winner in default_members()

    def test_priority_order_decides_winner(self):
        request = request_for(VALID_F)
        first = solve_portfolio(
            request, engines=["eij", "hybrid"], parallel=False
        )
        second = solve_portfolio(
            request, engines=["hybrid", "eij"], parallel=False
        )
        assert first.winner == "eij"
        assert second.winner == "hybrid"

    def test_adopts_winner_stats_and_countermodel(self):
        formula = parse_formula(INVALID_F)
        outcome = solve_portfolio(
            SolveRequest(formula=formula), parallel=False
        )
        assert outcome.status == Status.INVALID
        assert outcome.counterexample is not None
        assert not evaluate(formula, outcome.counterexample)
        assert outcome.stats.stages  # winner's telemetry adopted

    def test_crash_falls_through_to_next_member(self, crashy):
        outcome = solve_portfolio(
            request_for(VALID_F),
            engines=["crashy-test", "hybrid"],
            parallel=False,
        )
        assert outcome.status == Status.VALID
        assert outcome.winner == "hybrid"

    def test_nothing_decided(self):
        # brute alone on a formula far beyond its enumeration budget.
        outcome = solve_portfolio(
            request_for(VALID_F, options={"limit": 1}),
            engines=["brute"],
            parallel=False,
        )
        assert outcome.status == Status.UNKNOWN
        assert "no engine decided" in outcome.detail

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            solve_portfolio(request_for(VALID_F), engines=[])


class TestParallelPortfolio:
    def test_race_decides_and_reports_winner(self):
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["hybrid", "eij", "sd"]
        )
        assert outcome.status == Status.VALID
        assert outcome.winner in ("hybrid", "eij", "sd")

    def test_invalid_countermodel_survives_process_hop(self):
        formula = parse_formula(INVALID_F)
        outcome = solve_portfolio(
            SolveRequest(formula=formula), engines=["hybrid", "sd"]
        )
        assert outcome.status == Status.INVALID
        assert outcome.counterexample is not None
        assert not evaluate(formula, outcome.counterexample)

    def test_first_win_cancels_losers(self, sleepy):
        started = time.perf_counter()
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["sleepy-test", "hybrid"]
        )
        elapsed = time.perf_counter() - started
        assert outcome.status == Status.VALID
        assert outcome.winner == "hybrid"
        # The 30 s sleeper must have been terminated, not awaited.
        assert elapsed < 15.0
        assert "cancelled: sleepy-test" in outcome.detail
        # No portfolio worker is left running after the call returns.
        leftovers = [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("portfolio-")
        ]
        assert leftovers == []

    def test_deadline_terminates_everything(self, sleepy):
        started = time.perf_counter()
        outcome = solve_portfolio(
            request_for(VALID_F),
            engines=["sleepy-test"],
            deadline=1.0,
            # single-member portfolios normally fall back to sequential;
            # force the parallel path to exercise deadline cancellation
            parallel=True,
        )
        elapsed = time.perf_counter() - started
        assert outcome.status == Status.UNKNOWN
        assert elapsed < 15.0

    def test_deterministic_priority_tie_break(self):
        # Among members decided in the same poll tick, the lowest member
        # index wins, whatever order the verdicts arrived in.
        members = ["sd", "hybrid", "eij"]
        valid = SolveOutcome(engine="x", status=Status.VALID)
        for arrived in (["eij", "hybrid"], ["hybrid", "eij"]):
            decided = {name: valid for name in arrived}
            assert _pick_winner(decided, members)[0] == "hybrid"
        decided = {name: valid for name in reversed(members)}
        assert _pick_winner(decided, members)[0] == "sd"

    def test_crashed_member_does_not_poison_race(self, crashy):
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["crashy-test", "hybrid"]
        )
        assert outcome.status == Status.VALID
        assert outcome.winner == "hybrid"

    def test_registered_as_engine(self):
        outcome = registry.get("portfolio").solve(request_for(VALID_F))
        assert outcome.status == Status.VALID
        assert outcome.engine == "portfolio"
        assert outcome.winner in default_members()

    def test_portfolio_as_race_member(self):
        # The member runs in a daemonic process, which cannot fork a race
        # of its own; it must fall back to the sequential portfolio.
        outcome = solve_portfolio(
            request_for("(= x x)"), engines=["portfolio"]
        )
        assert outcome.status == Status.VALID
        assert outcome.winner == "portfolio"


class TestBatch:
    def test_batch_preserves_order_and_verdicts(self):
        formulas = [parse_formula(t) for t in FORMULAS]
        outcomes = solve_batch(formulas, jobs=2)
        assert len(outcomes) == len(formulas)
        assert [o.valid for o in outcomes] == EXPECTED
        for outcome in outcomes:
            assert outcome.engine == "portfolio"
            assert outcome.winner is not None

    def test_batch_single_job_inline(self):
        outcomes = solve_batch(
            [parse_formula(VALID_F)], engines=["hybrid"], jobs=1
        )
        assert [o.valid for o in outcomes] == [True]

    def test_batch_empty(self):
        assert solve_batch([]) == []

    def test_intra_batch_dedupe_canonicalizes_once_per_class(
        self, monkeypatch
    ):
        # Hash-consing makes repeated formulas identical objects, so the
        # batch must canonicalize each isomorphism class exactly once,
        # not once per batch element.
        import repro.logic.canonical as canonical_mod

        real = canonical_mod.canonicalize
        calls = []

        def counting(formula):
            calls.append(formula)
            return real(formula)

        monkeypatch.setattr(canonical_mod, "canonicalize", counting)
        f = parse_formula(VALID_F)
        g = parse_formula(INVALID_F)
        outcomes = solve_batch(
            [f, f, g, f, g], engines=["hybrid"], jobs=1
        )
        assert len(calls) == 2
        assert [o.valid for o in outcomes] == [
            True,
            True,
            False,
            True,
            False,
        ]
        dedupes = sum(
            o.stats.cache.dedupes
            for o in outcomes
            if o.stats.cache is not None
        )
        assert dedupes == 3


class UndecidedEngine(Engine):
    """Returns UNKNOWN instantly — forces the cube escalation path."""

    name = "undecided-test"

    def solve(self, request):
        return SolveOutcome(engine=self.name, status=Status.UNKNOWN)


@pytest.fixture
def undecided():
    registry.register(UndecidedEngine())
    try:
        yield
    finally:
        registry.unregister("undecided-test")


class TestRaceTelemetry:
    def test_cancellation_recorded_and_losers_terminated(self, sleepy):
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["sleepy-test", "hybrid"]
        )
        assert outcome.status == Status.VALID
        # The loser must be gone from the process table...
        leftovers = [
            p
            for p in multiprocessing.active_children()
            if p.name.startswith("portfolio-")
        ]
        assert leftovers == []
        # ...and the race StageRecord must say so: telemetry records the
        # cancellation, not just the detail string.
        races = [s for s in outcome.stats.stages if s.name == "race"]
        assert len(races) == 1
        assert races[0].counters["members"] == 2
        assert races[0].counters["cancelled"] >= 1
        assert (
            races[0].counters["finished"]
            + races[0].counters["cancelled"]
            <= 2
        )

    def test_race_record_present_without_cancellation(self):
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["hybrid"], parallel=False
        )
        races = [s for s in outcome.stats.stages if s.name == "race"]
        assert len(races) == 1
        assert races[0].counters["cancelled"] == 0


class TestCubeFallback:
    def test_batch_escalates_undecided_to_cube(self, undecided):
        formulas = [parse_formula(VALID_F), parse_formula(INVALID_F)]
        outcomes = solve_batch(
            formulas, engines=["undecided-test"], jobs=1
        )
        assert [o.valid for o in outcomes] == [True, False]
        assert all(o.engine == "cube" for o in outcomes)
        assert any(
            "cube escalation" in (o.detail or "") for o in outcomes
        )

    def test_escalated_countermodel_lifted_through_dedupe(self, undecided):
        formula = parse_formula(INVALID_F)
        outcomes = solve_batch(
            [formula], engines=["undecided-test"], jobs=1
        )
        assert outcomes[0].status == Status.INVALID
        assert outcomes[0].counterexample is not None
        assert not evaluate(formula, outcomes[0].counterexample)

    def test_decided_outcomes_not_escalated(self):
        # A decided batch must never pay for cube escalation.
        outcomes = solve_batch(
            [parse_formula(VALID_F)], engines=["hybrid"], jobs=1
        )
        assert outcomes[0].valid is True
        assert outcomes[0].engine == "portfolio"

    def test_cube_excluded_from_default_members(self):
        members = default_members()
        assert "cube" not in members
        assert "portfolio" not in members
