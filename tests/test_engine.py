"""Tests for the engine layer: contract, registry, stage telemetry."""

import dataclasses

import pytest

from repro.benchgen.suite import benchmark_by_name
from repro.core.result import FRONT_END_STAGES, SEARCH_STAGES
from repro.core.status import Status
from repro.engine import registry
from repro.engine.base import Engine
from repro.engine.contract import SolveOutcome, SolveRequest
from repro.engine.portfolio import _request_from_payload, _request_payload
from repro.engine.stages import run_eager
from repro.logic.parser import parse_formula
from repro.service.cache import ResultCache, solve_cached

VALID_F = "(=> (and (< x y) (< y z)) (< x z))"
INVALID_F = "(= x y)"

ALL_ENGINES = ("hybrid", "static", "eij", "sd", "lazy", "svc", "brute")

#: A non-default value for every SolveRequest field but the formula.
NON_DEFAULT_FIELDS = {
    "want_countermodel": False,
    "time_limit": 12.5,
    "sep_thold": 123,
    "trans_budget": 4567,
    "sd_ranges": "ascending",
    "preprocess": False,
    "options": {"limit": 7},
}


class TestStatus:
    def test_string_compatible(self):
        assert Status.VALID == "VALID"
        assert "%s" % Status.INVALID == "INVALID"
        assert "{}".format(Status.UNKNOWN) == "UNKNOWN"
        assert Status("VALID") is Status.VALID

    def test_as_valid(self):
        assert Status.VALID.as_valid is True
        assert Status.INVALID.as_valid is False
        assert Status.UNKNOWN.as_valid is None
        assert Status.ERROR.as_valid is None

    def test_decided(self):
        assert Status.VALID.decided and Status.INVALID.decided
        assert not Status.TRANSLATION_LIMIT.decided


class TestRegistry:
    def test_all_builtins_registered(self):
        names = registry.list_engines()
        for name in ALL_ENGINES + ("portfolio",):
            assert name in names

    def test_priority_order_starts_with_hybrid(self):
        assert registry.list_engines()[0] == "hybrid"

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(KeyError, match="hybrid"):
            registry.get("no-such-engine")

    def test_register_and_unregister(self):
        class Fake(Engine):
            name = "fake-test-engine"

            def solve(self, request):
                return SolveOutcome(engine=self.name, status=Status.UNKNOWN)

        try:
            registry.register(Fake())
            assert registry.get("fake-test-engine").name == "fake-test-engine"
            with pytest.raises(ValueError):
                registry.register(Fake())
        finally:
            registry.unregister("fake-test-engine")
        assert "fake-test-engine" not in registry.list_engines()


class TestEngineContract:
    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_valid_formula(self, name):
        outcome = registry.get(name).decide(parse_formula(VALID_F))
        assert outcome.status == Status.VALID
        assert outcome.engine == name
        assert outcome.wall_seconds >= 0

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_invalid_formula(self, name):
        outcome = registry.get(name).decide(parse_formula(INVALID_F))
        assert outcome.status == Status.INVALID
        if name != "brute":  # the one engine without countermodels
            assert outcome.counterexample is not None

    @pytest.mark.parametrize("name", ALL_ENGINES)
    def test_agreement_on_suite_subset(self, name):
        for bench_name in ("pipeline_s2_r2_1", "transval_s1_i3_1"):
            bench = benchmark_by_name(bench_name)
            outcome = registry.get(name).solve(
                SolveRequest(
                    formula=bench.formula,
                    want_countermodel=False,
                    time_limit=30.0,
                )
            )
            if name == "brute" and outcome.status == Status.UNKNOWN:
                continue  # enumeration space exceeds the oracle budget
            assert outcome.valid == bench.expected_valid, (
                name,
                bench_name,
                outcome.status,
            )

    @pytest.mark.parametrize(
        "name",
        [f.name for f in dataclasses.fields(SolveRequest) if f.name != "formula"],
    )
    def test_field_survives_payload_and_cache_rebase(self, name):
        value = NON_DEFAULT_FIELDS[name]  # a new field needs an entry
        formula = parse_formula(INVALID_F)
        assert getattr(SolveRequest(formula=formula), name) != value
        request = SolveRequest(formula=formula, **{name: value})

        shipped = _request_from_payload(_request_payload(request))
        assert getattr(shipped, name) == value
        assert shipped.formula is formula  # re-parsed, hash-consed

        rebased = []

        def solver(req):
            rebased.append(req)
            return SolveOutcome(engine="probe", status=Status.UNKNOWN)

        solve_cached(request, solver, ResultCache(), "fingerprint")
        assert getattr(rebased[0], name) == value
        assert rebased[0].formula is not formula  # canonical names


class TestStageTelemetry:
    def test_eager_stage_names(self):
        outcome = registry.get("hybrid").decide(parse_formula(VALID_F))
        names = [s.name for s in outcome.stages]
        # Preprocessing may close the instance before the sat stage runs.
        assert names in (
            ["func-elim", "encode", "cnf", "preprocess", "sat"],
            ["func-elim", "encode", "cnf", "preprocess"],
        )

    def test_eager_stage_names_without_preprocess(self):
        outcome = registry.get("hybrid").solve(
            SolveRequest(
                formula=parse_formula(VALID_F), preprocess=False
            )
        )
        assert [s.name for s in outcome.stages] == [
            "func-elim",
            "encode",
            "cnf",
            "sat",
        ]

    def test_translation_limit_keeps_trans_clauses(self):
        # The tripped budget still reports how far generation got.
        bench = benchmark_by_name("invariant_n12_3")
        outcome = run_eager(
            SolveRequest(formula=bench.formula, trans_budget=1000)
        )
        assert outcome.status == Status.TRANSLATION_LIMIT
        encode = outcome.stages[-1]
        assert encode.name == "encode"
        assert encode.counters["trans_clauses"] == 1001

    def test_budget_counts_per_class(self):
        # Two classes of 6 and 12 clauses: each fits a budget of 15,
        # though together they pass it.
        bench = benchmark_by_name("pipeline_s2_r2_1")
        outcome = registry.get("eij").solve(
            SolveRequest(formula=bench.formula, trans_budget=15)
        )
        assert outcome.status == Status.VALID
        assert outcome.stats.counter("encode", "trans_clauses") == 18

    def test_eager_decode_stage_on_invalid(self):
        outcome = registry.get("hybrid").decide(parse_formula(INVALID_F))
        assert [s.name for s in outcome.stages][-1] == "decode"

    def test_eager_counters(self):
        outcome = registry.get("eij").decide(parse_formula(VALID_F))
        by_name = {s.name: s for s in outcome.stages}
        assert by_name["func-elim"].counters["dag_suf"] > 0
        assert by_name["cnf"].counters["clauses"] == outcome.stats.counter(
            "cnf", "clauses"
        )
        assert by_name["encode"].counters["sep_count"] > 0
        assert "clauses_after" in by_name["preprocess"].counters
        if "sat" in by_name:
            assert "decisions" in by_name["sat"].counters

    def test_lazy_stages(self):
        outcome = registry.get("lazy").decide(parse_formula(VALID_F))
        by_name = {s.name: s for s in outcome.stages}
        assert "iterations" in by_name["refine"].counters
        assert by_name["refine"].counters["iterations"] >= 1

    def test_svc_stages(self):
        outcome = registry.get("svc").decide(parse_formula(VALID_F))
        names = [s.name for s in outcome.stages]
        assert names == ["func-elim", "flatten", "split"]

    def test_brute_stages(self):
        outcome = registry.get("brute").decide(parse_formula(VALID_F))
        assert [s.name for s in outcome.stages] == ["enumerate"]
        assert outcome.stages[0].counters["limit"] > 0

    def test_check_validity_carries_stages(self):
        from repro.core.decision import check_validity

        result = check_validity(parse_formula(VALID_F), method="hybrid")
        assert isinstance(result, SolveOutcome)
        assert result.engine == "hybrid"
        assert result.stats.stages
        assert result.stats.stages[0].name == "func-elim"

    def test_stage_record_describe(self):
        outcome = registry.get("hybrid").decide(parse_formula(VALID_F))
        line = outcome.stages[0].describe()
        assert "func-elim" in line and "dag_suf=" in line


class TestOneRecordPerSolve:
    """Every registered engine writes its times and sizes only into
    ``stats.stages``; the flat figures are derived from those records."""

    SEARCH_COUNTERS = {
        "refine": {"iterations", "theory_checks", "conflict_clauses"},
        "split": {"splits", "theory_checks", "pruned"},
    }

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize("name", registry.list_engines())
    def test_one_record(self, name, valid):
        bench = benchmark_by_name("driver_s3_1", valid=valid)
        outcome = registry.get(name).solve(
            SolveRequest(formula=bench.formula, time_limit=30.0)
        )
        stats = outcome.stats
        assert stats.stages, name
        assert stats.encode_seconds == pytest.approx(
            sum(r.seconds for r in stats.stages if r.name in FRONT_END_STAGES)
        )
        assert stats.sat_seconds == pytest.approx(
            sum(r.seconds for r in stats.stages if r.name in SEARCH_STAGES)
        )
        assert outcome.wall_seconds >= stats.encode_seconds + stats.sat_seconds
        names = [r.name for r in stats.stages]
        if name == "lazy":
            assert names == ["func-elim", "encode", "cnf", "refine"]
        if name == "svc":
            assert names == ["func-elim", "flatten", "split"]
        for record in stats.stages:
            expected = self.SEARCH_COUNTERS.get(record.name, set())
            assert expected <= set(record.counters), (name, record)


class TestEngineOptions:
    def test_brute_limit_option(self):
        outcome = registry.get("brute").solve(
            SolveRequest(
                formula=parse_formula(VALID_F), options={"limit": 1}
            )
        )
        assert outcome.status == Status.UNKNOWN
        assert "limit" in outcome.detail

    def test_lazy_iteration_cap(self):
        outcome = registry.get("lazy").solve(
            SolveRequest(
                formula=parse_formula(INVALID_F),
                options={"max_iterations": 10_000},
            )
        )
        assert outcome.status == Status.INVALID

    def test_translation_limit_surfaces(self):
        bench = benchmark_by_name("pipeline_s2_r2_1")
        outcome = registry.get("eij").solve(
            SolveRequest(formula=bench.formula, trans_budget=1)
        )
        assert outcome.status == Status.TRANSLATION_LIMIT
