"""The benchmark's own helpers: percentiles, failure accounting, self
time, and spans against the pipeline's own stage records."""

import gc

import pytest

from measure import Tally, percentile
from serve_client import ServeWorkload
from tracing import ClientLayer, Span, Tracer, install, self_times
from workloads import SEP_THOLD, TRANS_BUDGET, Request


class TestPercentile:
    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        value, count = percentile([float(i) for i in range(99)], 0.9)
        assert value is None
        assert count == 99

    def test_reports_the_percentile_and_its_sample_count(self):
        value, count = percentile([float(i) for i in range(1, 101)], 0.9)
        assert value == 90.0
        assert count == 100

    def test_median_needs_only_twenty_samples(self):
        assert percentile([1.0] * 19, 0.5)[0] is None
        assert percentile([1.0] * 20, 0.5)[0] == 1.0


class TestServeFailures:
    def _client(self):
        workload = ServeWorkload()
        workload.client = ClientLayer()
        workload.answers = []
        return workload

    @pytest.mark.parametrize("kind", ["deadline", "overloaded", "internal", "parse"])
    def test_every_error_response_is_a_failure_and_misses_the_limit(self, kind):
        tally = Tally(limit_s=2.0)
        request = Request("q1", "solve", {"formula": "(= x x)"}, expected=True)
        response = {"id": "q1", "ok": False, "error": {"kind": kind, "message": ""}}
        self._client()._answer(tally, request, response, 0.01, {})
        assert (tally.operations, tally.queries, tally.failed) == (1, 1, 1)
        assert tally.errors[kind] == 1
        assert tally.decided == 0

    def test_an_error_on_a_session_op_is_a_failure_too(self):
        tally = Tally(limit_s=2.0)
        request = Request("c0-3", "push", {}, session="s0")
        response = {"id": "c0-3", "ok": False, "error": {"kind": "internal", "message": ""}}
        self._client()._answer(tally, request, response, 0.01, {"s0": "s1"})
        assert (tally.operations, tally.failed, tally.queries) == (1, 1, 0)

    def test_a_verdict_past_the_limit_is_not_decided(self):
        tally = Tally(limit_s=2.0)
        request = Request("q1", "solve", {"formula": "(= x x)"}, expected=True)
        response = {"id": "q1", "ok": True, "valid": True, "status": "VALID",
                    "wall_seconds": 2.2}
        self._client()._answer(tally, request, response, 2.3, {})
        assert tally.failed == 0
        assert tally.decided == 0

    def test_a_verdict_within_the_limit_is_decided(self):
        tally = Tally(limit_s=2.0)
        request = Request("q1", "solve", {"formula": "(= x x)"}, expected=True)
        response = {"id": "q1", "ok": True, "valid": True, "status": "VALID",
                    "wall_seconds": 0.01}
        workload = self._client()
        workload._answer(tally, request, response, 0.02, {})
        assert tally.decided == 1
        assert workload.client.transport_s == [pytest.approx(0.01)]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(1, "outer", 0.0, 10.0),
            Span(2, "a", 1.0, 4.0, parent=1),
            Span(3, "a.inner", 2.0, 3.0, parent=2),
            Span(4, "b", 5.0, 9.5, parent=1),
            Span(5, "b.inner", 5.0, 9.5, parent=4),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.5)
        assert selfs[2] == pytest.approx(2.0)
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(0.0)
        assert selfs[5] == pytest.approx(4.5)

    def test_children_on_other_threads_overlapping_count_once(self):
        spans = [
            Span(1, "outer", 0.0, 10.0),
            Span(2, "a", 1.0, 6.0, parent=1),
            Span(3, "b", 4.0, 8.0, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(3.0)

    def test_live_wrappers_nest_and_restore(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        original = Layer.__dict__["inner"]
        tracer.wrap(Layer, "outer", "outer")
        tracer.wrap(Layer, "inner", "inner")
        tracer.set_query("q7")
        assert Layer().outer() == 2
        inner, outer = tracer.spans
        assert inner.parent == outer.sid and outer.parent is None
        assert inner.query == outer.query == "q7"
        assert self_times(tracer.spans)[outer.sid] == pytest.approx(
            outer.seconds - inner.seconds
        )
        tracer.uninstall()
        assert Layer.__dict__["inner"] is original


def test_suite_query_spans_match_the_stage_records():
    """The spans around one suite query agree with the StageRecord
    seconds the outcome reports, to within the wrappers' own overhead."""
    from repro.benchgen import benchmark_by_name
    from repro.engine import registry
    from repro.engine.contract import SolveRequest

    bench = benchmark_by_name("driver_s12_5", valid=False)
    tracer = install(Tracer())
    # A collection pause landing between two clock reads would be
    # charged to one side only.
    gc.collect()
    gc.disable()
    try:
        outcome = registry.get("hybrid").solve(
            SolveRequest(
                formula=bench.formula, sep_thold=SEP_THOLD, trans_budget=TRANS_BUDGET
            )
        )
    finally:
        gc.enable()
        tracer.uninstall()
    stage = {record.name: record.seconds for record in outcome.stages}
    spans = {span.name: span for span in tracer.spans}
    slack = 1e-3 + sum(span.cost for span in tracer.spans)
    assert {"encode", "preprocess", "sat", "decode"} <= set(stage)
    # The pipeline span also covers run_eager freeing its intermediates on
    # return, which the outcome's own clock stops before.
    pipeline = spans["engine.stages"].seconds
    assert outcome.wall_seconds - slack <= pipeline <= 1.1 * outcome.wall_seconds + slack
    # Stages whose body is the wrapped call and nothing heavier.
    assert spans["encodings.hybrid"].seconds == pytest.approx(stage["encode"], abs=slack)
    assert spans["sat.preprocess"].seconds == pytest.approx(stage["preprocess"], abs=slack)
    # Stages that also do unwrapped work around the call.
    assert spans["transform.func_elim"].seconds <= stage["func-elim"] + slack
    assert spans["sat.tseitin"].seconds <= stage["cnf"] + slack
    assert spans["sat.solver"].seconds <= stage["sat"] + slack
    decode = sum(s.seconds for s in tracer.spans if s.name == "core.decision")
    assert decode <= stage["decode"] + slack


def test_benchmark_json_names_the_metrics_a_run_prints():
    import json
    import os

    from tracing import per_layer_metrics

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    tally = Tally(limit_s=1.0)
    tally.measured_s = 1.0
    printed = {
        "end_to_end": tally.end_to_end(0.0),
        "per_layer": per_layer_metrics([], tally, ClientLayer()),
    }
    for section, metrics in printed.items():
        assert [(m["name"], m["unit"]) for m in bench[section]] == [
            (name, unit) for name, (_value, unit) in metrics.items()
        ]
