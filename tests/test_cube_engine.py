"""Cube-and-conquer engine tests: verdicts, countermodels, re-splits."""

import pytest

from repro.benchgen.cnf import pigeonhole_cnf
from repro.benchgen.suite import benchmark_by_name
from repro.core.status import Status
from repro.engine import cube, registry
from repro.engine.contract import SolveRequest
from repro.engine.cube import conquer
from repro.core.result import StageRecord
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.terms import BoolVar

FORMULAS = [
    ("(=> (and (< x y) (< y z)) (< x z))", True),
    ("(= x y)", False),
    ("(=> (= a b) (= (f a) (f b)))", True),
    ("(< x (+ x 1))", True),
    ("(< (+ x 1) x)", False),
]


def solve_cube(text, **options):
    return registry.get("cube").solve(
        SolveRequest(formula=parse_formula(text), options=options)
    )


class TestEngine:
    def test_registered_before_portfolio(self):
        names = registry.list_engines()
        assert "cube" in names
        assert names.index("cube") < names.index("portfolio")

    @pytest.mark.parametrize("text,expected", FORMULAS)
    def test_sequential_agrees_with_hybrid(self, text, expected):
        outcome = solve_cube(text, cube_procs=1, cube_depth=2)
        hybrid = registry.get("hybrid").solve(
            SolveRequest(formula=parse_formula(text))
        )
        assert outcome.valid == expected
        assert outcome.valid == hybrid.valid
        assert outcome.engine == "cube"
        assert outcome.stats.method == "CUBE(HYBRID)"

    @pytest.mark.parametrize("text,expected", FORMULAS[:2])
    def test_parallel_agrees(self, text, expected):
        outcome = solve_cube(text, cube_procs=2, cube_depth=2)
        assert outcome.valid == expected

    def test_countermodel_falsifies_formula(self):
        text = "(=> (< x y) (< y x))"
        formula = parse_formula(text)
        outcome = solve_cube(text, cube_procs=2)
        assert outcome.status == Status.INVALID
        assert outcome.counterexample is not None
        assert not evaluate(formula, outcome.counterexample)

    def test_classes_stay_eager_without_refinement(self):
        # Cube's workers attach no theory, so HYBRID keeps ooo's class
        # with inequalities eager (SD) instead of LAZY.
        bench = benchmark_by_name("ooo_t16_7")
        outcome = registry.get("cube").solve(
            SolveRequest(formula=bench.formula, options={"cube_procs": 2})
        )
        assert outcome.status == Status.VALID
        assert outcome.stats.counter("encode", "lazy_classes") == 0
        assert outcome.stats.counter("encode", "sd_classes") == 1

    def test_sat_stage_reports_cube_counters(self):
        outcome = solve_cube(FORMULAS[0][0], cube_procs=1)
        sat_stages = [
            s for s in outcome.stats.stages if s.name == "sat"
        ]
        if sat_stages:  # preprocessing may solve the formula outright
            assert "cubes" in sat_stages[0].counters

    def test_deterministic_across_runs(self):
        verdicts = set()
        for _ in range(3):
            verdicts.add(solve_cube(FORMULAS[1][0], cube_procs=1).valid)
        assert verdicts == {False}


def conquer_cnf(cnf, **options):
    request = SolveRequest(
        formula=BoolVar("test_cube_dummy"), options=options
    )
    record = StageRecord("sat", 0.0)
    result = conquer(cnf, request, record, [])
    return result, record


class TestConductor:
    def test_parallel_refutes_pigeonhole(self):
        result, record = conquer_cnf(
            pigeonhole_cnf(6, 5), cube_depth=3, cube_procs=2
        )
        assert result.status == "UNSAT"
        assert record.counters["workers"] == 2
        assert record.counters["refuted_cubes"] > 0

    def test_tiny_budget_forces_resplits(self, monkeypatch):
        # A 20-conflict budget cannot refute any depth-2 cube of this
        # instance, so the conductor must re-split to finish.
        monkeypatch.setattr(cube, "DEFAULT_BUDGET", 20)
        result, record = conquer_cnf(
            pigeonhole_cnf(7, 6), cube_depth=2, cube_procs=2
        )
        assert result.status == "UNSAT"
        assert record.counters["resplits"] > 0

    def test_sharing_counters_live_on_unsat(self):
        result, record = conquer_cnf(
            pigeonhole_cnf(7, 6), cube_depth=3, cube_procs=2
        )
        assert result.status == "UNSAT"
        assert record.counters["exported"] > 0

    def test_no_share_disables_conduit(self):
        result, record = conquer_cnf(
            pigeonhole_cnf(6, 5),
            cube_depth=3,
            cube_procs=2,
            cube_share=False,
        )
        assert result.status == "UNSAT"
        assert record.counters["shared_clauses"] == 0
        assert record.counters["imported"] == 0

    def test_sequential_time_limit_returns_unknown(self):
        request = SolveRequest(
            formula=BoolVar("test_cube_dummy"),
            time_limit=0.0,
            options={"cube_procs": 1, "cube_depth": 3},
        )
        record = StageRecord("sat", 0.0)
        result = conquer(pigeonhole_cnf(8, 7), request, record, [])
        assert result.status == "UNKNOWN"
