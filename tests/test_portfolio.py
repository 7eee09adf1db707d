"""Tests for the parallel portfolio driver and ``repro portfolio``."""

import multiprocessing
import time

import pytest

from repro.benchgen.suite import benchmark_by_name
from repro.cli import main
from repro.core.status import Status
from repro.engine import portfolio as portfolio_mod
from repro.engine import registry
from repro.engine.base import Engine
from repro.engine.contract import SolveOutcome, SolveRequest
from repro.engine.portfolio import (
    _pick_winner,
    default_members,
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


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the race see ``n`` usable CPUs."""

    def pin(n):
        monkeypatch.setattr(portfolio_mod, "_usable_cpus", lambda: n)

    return pin


def request_for(text, **kw):
    return SolveRequest(formula=parse_formula(text), **kw)


def portfolio_children():
    return [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("portfolio-")
    ]


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

    @pytest.mark.parametrize("parallel", [True, False])
    def test_unknown_member_rejected_before_anything_starts(self, parallel):
        with pytest.raises(KeyError, match="hybrdi.*registered: hybrid"):
            solve_portfolio(
                request_for(VALID_F),
                engines=["hybrid", "hybrdi"],
                parallel=parallel,
            )
        assert portfolio_children() == []

    @pytest.mark.parametrize("parallel", [True, False])
    def test_repeated_member_races_once(self, parallel):
        # The race tracks members by name: a repeated one must not leave
        # it waiting for a second report that never comes.
        started = time.perf_counter()
        outcome = solve_portfolio(
            request_for(VALID_F, options={"limit": 1}),
            engines=["brute", "brute"],
            parallel=parallel,
            deadline=10.0,
        )
        assert time.perf_counter() - started < 5.0
        assert outcome.status == Status.UNKNOWN
        assert outcome.detail == "no engine decided (brute=UNKNOWN)"
        race = next(s for s in outcome.stats.stages if s.name == "race")
        assert race.counters["members"] == 1
        assert portfolio_children() == []

    def test_default_order_is_hybrid_then_lazy(self):
        assert default_members()[:2] == ["hybrid", "lazy"]

    def test_lazy_answers_before_the_other_eager_encodings(self):
        # HYBRID gives up on the invariant family (its transitivity
        # exceeds the budget); lazy, second, decides it at once.
        bench = benchmark_by_name("invariant_n12_3")
        outcome = solve_portfolio(
            SolveRequest(formula=bench.formula), parallel=False
        )
        assert outcome.status == Status.VALID
        assert outcome.winner == "lazy"


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

    def test_first_win_cancels_losers(self, sleepy, cpus):
        # Two slots: the sleeper ahead of hybrid must not hold the only one.
        cpus(2)
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
        assert portfolio_children() == []

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

    def test_deadline_names_members_never_started(self, sleepy, cpus):
        cpus(1)
        outcome = solve_portfolio(
            request_for(VALID_F),
            engines=["sleepy-test", "hybrid"],
            deadline=1.0,
        )
        assert outcome.status == Status.UNKNOWN
        assert "not started: hybrid" in outcome.detail
        race = next(s for s in outcome.stats.stages if s.name == "race")
        assert race.counters["members"] == 2
        assert race.counters["launched"] == 1
        assert race.counters["finished"] == 0
        assert race.counters["cancelled"] == 1
        assert portfolio_children() == []

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

    def test_freed_slot_starts_the_next_member(self, crashy, cpus):
        cpus(1)
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["crashy-test", "hybrid"]
        )
        assert outcome.status == Status.VALID
        assert outcome.winner == "hybrid"
        race = next(s for s in outcome.stats.stages if s.name == "race")
        assert race.counters["launched"] == 2

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


class NapEngine(Engine):
    """Sleeps 0.3 s, answers UNKNOWN, and logs when its solve ran."""

    def __init__(self, name, log_dir):
        self.name = name
        self.log = log_dir / name

    def solve(self, request):
        start = time.time()
        time.sleep(0.3)
        self.log.write_text("%r %r" % (start, time.time()))
        return SolveOutcome(engine=self.name, status=Status.UNKNOWN)


@pytest.fixture
def nappers(tmp_path):
    names = ["nap-%d-test" % i for i in range(4)]
    for name in names:
        registry.register(NapEngine(name, tmp_path))
    try:
        yield names, tmp_path
    finally:
        for name in names:
            registry.unregister(name)


def solve_intervals(names, log_dir):
    return [
        tuple(float(t) for t in (log_dir / name).read_text().split())
        for name in names
    ]


def most_at_once(intervals):
    """The most intervals that contain one instant."""
    return max(
        sum(1 for start, end in intervals if start <= at < end)
        for at, _ in intervals
    )


class TestSchedule:
    def test_at_most_one_member_per_cpu(self, nappers, cpus):
        names, log_dir = nappers
        cpus(2)
        outcome = solve_portfolio(request_for(VALID_F), engines=names)
        assert outcome.status == Status.UNKNOWN
        race = next(s for s in outcome.stats.stages if s.name == "race")
        assert race.counters["launched"] == 4
        assert race.counters["finished"] == 4
        assert most_at_once(solve_intervals(names, log_dir)) == 2

    def test_every_member_starts_at_once_given_the_cpus(self, nappers, cpus):
        names, log_dir = nappers
        cpus(4)
        solve_portfolio(request_for(VALID_F), engines=names)
        assert most_at_once(solve_intervals(names, log_dir)) == 4


def write_files(tmp_path, texts):
    paths = []
    for index, text in enumerate(texts):
        path = tmp_path / ("f%d.suf" % index)
        path.write_text(text)
        paths.append(str(path))
    return paths


def portfolio_command(argv, capsys):
    """Run ``repro portfolio`` in-process: (exit code, output lines)."""
    code = main(["portfolio"] + argv)
    return code, capsys.readouterr().out.splitlines()


class TestBatch:
    """``repro portfolio FILE...`` races each file in turn, input order."""

    def test_batch_preserves_order_and_verdicts(self, tmp_path, capsys):
        paths = write_files(tmp_path, FORMULAS)
        code, lines = portfolio_command(paths, capsys)
        assert code == 1  # not every file is valid
        assert [line.split(": ")[0] for line in lines] == paths
        assert [line.split()[1] for line in lines] == [
            "VALID" if expected else "INVALID" for expected in EXPECTED
        ]
        assert all("winner=-" not in line for line in lines)

    def test_each_file_races_its_members(self, sleepy, cpus, tmp_path, capsys):
        # Two slots: for each file the sleeper holds one and hybrid the
        # other, so both answer long before the sleeper would wake.
        cpus(2)
        paths = write_files(tmp_path, [VALID_F, UF_VALID_F])
        started = time.perf_counter()
        code, lines = portfolio_command(
            paths + ["--engines", "sleepy-test,hybrid", "--timeout", "20"],
            capsys,
        )
        assert time.perf_counter() - started < 10.0
        assert code == 0
        assert len(lines) == 2
        for path, line in zip(paths, lines):
            assert line.startswith("%s: VALID winner=hybrid " % path)
        assert portfolio_children() == []

    def test_sequential_forks_nothing(self, monkeypatch, tmp_path, capsys):
        def no_fork():
            raise AssertionError("--sequential must not fork")

        monkeypatch.setattr(portfolio_mod, "_mp_context", no_fork)
        paths = write_files(tmp_path, [VALID_F, UF_VALID_F])
        code, lines = portfolio_command(
            paths + ["--engines", "eij,hybrid", "--sequential"], capsys
        )
        assert code == 0
        assert [line.split()[1:3] for line in lines] == [
            ["VALID", "winner=eij"]
        ] * 2

class TestRaceTelemetry:
    def test_cancellation_recorded_and_losers_terminated(self, sleepy, cpus):
        # Two slots: the sleeper ahead of hybrid must not hold the only one.
        cpus(2)
        outcome = solve_portfolio(
            request_for(VALID_F), engines=["sleepy-test", "hybrid"]
        )
        assert outcome.status == Status.VALID
        # The loser must be gone from the process table...
        assert portfolio_children() == []
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
    def test_cube_excluded_from_default_members(self):
        members = default_members()
        assert "cube" not in members
        assert "portfolio" not in members
