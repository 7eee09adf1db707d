"""Tests for the result/statistics types."""

from repro.core.result import DecisionStats, SolveOutcome, StageRecord
from repro.core.status import Status


class TestDecisionStats:
    def test_total_seconds(self):
        stats = DecisionStats(
            stages=[StageRecord("encode", 1.5), StageRecord("sat", 2.5)]
        )
        assert stats.encode_seconds == 1.5
        assert stats.sat_seconds == 2.5
        assert stats.total_seconds == 4.0

    def test_stages_outside_both_sets_count_in_neither(self):
        stats = DecisionStats(
            stages=[
                StageRecord("func-elim", 1.0),
                StageRecord("flatten", 2.0),
                StageRecord("sat", 4.0),
                StageRecord("decode", 8.0),
                StageRecord("race", 16.0),
                StageRecord("cache", 32.0),
            ]
        )
        assert stats.encode_seconds == 3.0
        assert stats.sat_seconds == 4.0

    def test_conflict_clauses_proxy(self):
        stats = DecisionStats()
        assert stats.conflict_clauses == 0
        stats.stages.append(StageRecord("sat", counters={"learned": 42}))
        assert stats.conflict_clauses == 42

    def test_sep_predicates_proxy(self):
        stats = DecisionStats()
        assert stats.sep_predicates == 0
        stats.stages.append(StageRecord("encode", counters={"sep_count": 17}))
        assert stats.sep_predicates == 17

    def test_counter_reads_the_named_stage(self):
        stats = DecisionStats(
            stages=[
                StageRecord("cnf", counters={"vars": 3, "clauses": 7}),
                StageRecord("preprocess", counters={"clauses_after": 2}),
            ]
        )
        assert stats.counter("cnf", "clauses") == 7
        assert stats.counter("cnf", "missing") == 0
        assert stats.counter("sat", "clauses") == 0

    def test_normalized_seconds(self):
        stats = DecisionStats(
            stages=[
                StageRecord("func-elim", 1.0, {"dag_suf": 500}),
                StageRecord("sat", 1.0),
            ]
        )
        assert abs(stats.normalized_seconds() - 4.0) < 1e-9

    def test_normalized_handles_zero_size(self):
        stats = DecisionStats(stages=[StageRecord("encode", 1.0)])
        assert stats.normalized_seconds() > 0


class TestSolveOutcome:
    def test_valid_mapping(self):
        def valid(status):
            return SolveOutcome(engine="hybrid", status=status).valid

        assert valid(Status.VALID) is True
        assert valid(Status.INVALID) is False
        assert valid(Status.UNKNOWN) is None
        assert valid(Status.TRANSLATION_LIMIT) is None
