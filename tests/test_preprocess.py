"""Tests for the SatELite-style CNF preprocessor.

Each simplification rule gets a targeted unit test, the model
reconstruction stack is checked both directly and through the full
eager pipeline, a randomized property test cross-checks
equisatisfiability plus reconstructed-model validity against the plain
CDCL solver, and the fixpoint tests check that no rule still applies
to the simplified CNF.
"""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import builders as b
from repro.sat.cnf import Cnf
from repro.sat.preprocess import (
    DEFAULT_BVE_CLAUSE_LIMIT,
    DEFAULT_BVE_OCC_LIMIT,
    PreprocessResult,
    preprocess_cnf,
)
from repro.sat.solver import solve_cnf


def make_cnf(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    cnf.add_clauses(clauses)
    return cnf


def assert_model_satisfies(cnf, model):
    # Vars untouched by both solver and stack default to False.
    for clause in cnf.clauses:
        assert any(
            (lit > 0) == model.get(abs(lit), False) for lit in clause
        ), "clause %r unsatisfied by %r" % (clause, model)


def fixpoint_violations(pre, frozen):
    """What the rules could still do to ``pre.simplified``: the clause
    pairs where the first subsumes or self-subsumes the second, the
    unfrozen pure variables, and the unfrozen variables within both
    elimination limits whose resolvents fit the bound."""
    clauses = [frozenset(clause) for clause in pre.simplified.clauses]
    occ = defaultdict(list)
    for index, clause in enumerate(clauses):
        for lit in clause:
            occ[lit].append(index)
    pairs = []
    for i, small in enumerate(clauses):
        lit = min(small)
        # A clause that ``small`` (self-)subsumes holds ``lit`` or -lit.
        for j in occ[lit] + occ[-lit]:
            missing = small - clauses[j]
            if j != i and (
                not missing
                or (len(missing) == 1 and -min(missing) in clauses[j])
            ):
                pairs.append((sorted(small), sorted(clauses[j])))
    variables = sorted({abs(lit) for lit in occ} - set(frozen))
    pure = [var for var in variables if not occ[var] or not occ[-var]]
    eliminable = []
    for var in variables:
        pos = [clauses[i] for i in occ[var]]
        neg = [clauses[i] for i in occ[-var]]
        if not pos or not neg:
            continue
        if max(len(pos), len(neg)) > DEFAULT_BVE_OCC_LIMIT:
            continue
        if max(len(c) for c in pos + neg) > DEFAULT_BVE_CLAUSE_LIMIT:
            continue
        resolvents = sum(
            1
            for p in pos
            for q in neg
            if not any(-lit in p for lit in q if lit != -var)
        )
        if resolvents <= len(pos) + len(neg):
            eliminable.append(var)
    return pairs, pure, eliminable


def solve_and_reconstruct(cnf):
    """Preprocess, solve the simplified CNF, reconstruct; returns
    (status, model-or-None)."""
    pre = preprocess_cnf(cnf)
    if pre.status == "UNSAT":
        return "UNSAT", None
    result = solve_cnf(pre.simplified)
    if result.is_unsat:
        return "UNSAT", None
    return "SAT", pre.reconstruct(result.model)


class TestUnitPropagation:
    def test_units_fixed_to_fixpoint(self):
        # 1 forces 2 forces 3; all clauses disappear.
        cnf = make_cnf(3, [[1], [-1, 2], [-2, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.units_fixed == 3
        assert pre.stats.clauses_after == 0
        assert pre.status == "SAT"
        model = pre.reconstruct({})
        assert model[1] and model[2] and model[3]

    def test_conflicting_units_unsat(self):
        cnf = make_cnf(1, [[1], [-1]])
        pre = preprocess_cnf(cnf)
        assert pre.status == "UNSAT"
        # The simplified CNF must agree with the verdict.
        assert solve_cnf(pre.simplified).is_unsat

    def test_propagation_derives_empty_clause(self):
        cnf = make_cnf(2, [[1], [2], [-1, -2]])
        assert preprocess_cnf(cnf).status == "UNSAT"

    def test_input_not_mutated(self):
        cnf = make_cnf(2, [[1], [-1, 2]])
        before = [list(c) for c in cnf.clauses]
        preprocess_cnf(cnf)
        assert cnf.clauses == before


class TestPureLiterals:
    def test_pure_literal_removes_clauses(self):
        # 3 occurs only positively; both its clauses go away, leaving
        # nothing — but the reconstruction must still satisfy them.
        cnf = make_cnf(3, [[1, 3], [2, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.pure_literals >= 1
        assert pre.stats.clauses_after == 0
        _, model = solve_and_reconstruct(cnf)
        assert_model_satisfies(cnf, model)

    def test_pure_literal_negative_polarity(self):
        cnf = make_cnf(2, [[-1, 2], [-1, -2]])
        status, model = solve_and_reconstruct(cnf)
        assert status == "SAT"
        assert_model_satisfies(cnf, model)
        assert model[1] is False


class TestSubsumption:
    def test_subsumed_clause_removed(self):
        # [1, 2] subsumes [1, 2, 3].
        cnf = make_cnf(3, [[1, 2], [1, 2, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.clauses_subsumed == 1

    def test_duplicate_clause_subsumed(self):
        cnf = make_cnf(2, [[1, 2], [1, 2]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.clauses_subsumed == 1

    def test_no_false_subsumption(self):
        # Neither clause subsumes the other.
        cnf = make_cnf(3, [[1, 2], [1, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.clauses_subsumed == 0

    def test_tautology_dropped_on_ingest(self):
        cnf = make_cnf(2, [[1, -1], [1, 2]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.clauses_before == 2
        # the tautology is gone without counting as subsumption
        assert pre.stats.clauses_subsumed == 0


class TestSelfSubsumption:
    def test_clause_strengthened(self):
        # (1 2) self-subsumes (-1 2 3): resolving on 1 gives (2 3),
        # which replaces the longer clause.
        cnf = make_cnf(3, [[1, 2], [-1, 2, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.literals_strengthened == 1
        # Later passes may simplify further; the result stays SAT and
        # the reconstruction covers whatever was removed.
        status, model = solve_and_reconstruct(cnf)
        assert status == "SAT"
        assert_model_satisfies(cnf, model)

    def test_strengthening_to_unit_cascades(self):
        # (1 2) strengthens (-1 2) to (2); the unit then satisfies both.
        cnf = make_cnf(2, [[1, 2], [-1, 2]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.clauses_after == 0
        model = pre.reconstruct({})
        assert model[2] is True
        assert_model_satisfies(cnf, model)


class TestVariableElimination:
    def test_variable_resolved_away(self):
        # Every variable occurs in both polarities (so pure-literal
        # elimination stays out of the way); 1 is cheapest to resolve
        # away: (1 2) x (-1 3) gives the single resolvent (2 3).
        cnf = make_cnf(3, [[1, 2], [-1, 3], [-2, -3], [2, 3]])
        pre = preprocess_cnf(cnf)
        assert pre.stats.vars_eliminated >= 1
        assert all(
            1 not in (abs(l) for l in c) for c in pre.simplified.clauses
        )
        status, model = solve_and_reconstruct(cnf)
        assert status == "SAT"
        assert_model_satisfies(cnf, model)

    def test_reconstruction_restores_eliminated_var(self):
        # After eliminating 1 the solver never sees it, but the
        # reconstructed model must satisfy the original clauses.
        cnf = make_cnf(3, [[1, 2], [-1, 3], [2, 3]])
        status, model = solve_and_reconstruct(cnf)
        assert status == "SAT"
        assert set(model) >= {1, 2, 3}
        assert_model_satisfies(cnf, model)

    def test_reconstruction_with_forced_polarity(self):
        # 2 is forced false, so eliminating 1 from (1 2) requires the
        # reconstruction to set 1 true.
        cnf = make_cnf(2, [[1, 2], [-2]])
        status, model = solve_and_reconstruct(cnf)
        assert status == "SAT"
        assert model[2] is False
        assert model[1] is True

    def test_elimination_detects_unsat(self):
        cnf = make_cnf(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
        status, _ = solve_and_reconstruct(cnf)
        assert status == "UNSAT"


class TestStatsAndResult:
    def test_size_counters(self):
        cnf = make_cnf(3, [[1, 2], [1, 2, 3], [-3, 1]])
        pre = preprocess_cnf(cnf)
        stats = pre.stats
        assert stats.vars_before == 3
        assert stats.clauses_before == 3
        assert stats.literals_before == 7
        assert stats.clauses_after <= stats.clauses_before
        assert stats.rounds >= 1
        assert stats.seconds >= 0.0

    def test_result_shares_variable_numbering(self):
        cnf = Cnf()
        x = cnf.new_var("x")
        y = cnf.new_var("y")
        cnf.add_clauses([[x], [x, y]])
        pre = preprocess_cnf(cnf)
        assert pre.simplified.num_vars == cnf.num_vars
        assert pre.simplified.lookup("x") == x
        assert pre.simplified.names[y] == "y"

    def test_empty_cnf_is_sat(self):
        pre = preprocess_cnf(Cnf())
        assert pre.status == "SAT"
        assert pre.reconstruct({}) == {}


class TestRandomizedEquisat:
    def test_random_cnfs_agree_with_solver(self):
        rng = random.Random(20260806)
        for trial in range(150):
            n = rng.randint(2, 12)
            m = rng.randint(1, 35)
            cnf = Cnf()
            for _ in range(n):
                cnf.new_var()
            for _ in range(m):
                k = rng.randint(1, 4)
                cnf.add_clause(
                    [
                        rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(k)
                    ]
                )
            reference = solve_cnf(cnf)
            status, model = solve_and_reconstruct(cnf)
            assert status == reference.status, "trial %d" % trial
            if status == "SAT":
                assert_model_satisfies(cnf, model)


class TestPipelineIntegration:
    def test_verdicts_match_with_and_without_preprocessing(self):
        from repro.benchgen.suite import benchmark_by_name
        from repro.engine import registry
        from repro.engine.contract import SolveRequest
        from repro.logic.semantics import evaluate

        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formulas = [
            b.implies(b.band(b.eq(x, y), b.eq(y, z)), b.eq(x, z)),
            b.implies(b.eq(x, y), b.eq(y, z)),
            b.implies(b.lt(x, y), b.bnot(b.eq(x, y))),
            b.band(b.lt(x, y), b.lt(y, x)),
        ]
        # The smallest member of five suite domains: real encodings with
        # thousands of clauses for the simplifier to work on.
        formulas += [
            benchmark_by_name(name).formula
            for name in (
                "pipeline_s2_r2_1",
                "transval_s1_i3_1",
                "ooo_t4_1",
                "loadstore_e3_p6_1",
                "driver_s3_1",
            )
        ]
        for method in ("sd", "eij", "hybrid", "static"):
            engine = registry.get(method)
            for formula in formulas:
                with_pre = engine.solve(
                    SolveRequest(formula=formula, preprocess=True)
                )
                without = engine.solve(
                    SolveRequest(formula=formula, preprocess=False)
                )
                assert with_pre.status == without.status, method
                if with_pre.counterexample is not None:
                    # The reconstructed countermodel must falsify the
                    # input formula, exactly like the raw one.
                    assert not evaluate(formula, with_pre.counterexample)

    def test_preprocess_stage_recorded(self, monkeypatch):
        from repro.benchgen.suite import benchmark_by_name
        from repro.engine import registry, stages
        from repro.engine.contract import SolveRequest

        results = []

        def recording(cnf, frozen=()):
            results.append(preprocess_cnf(cnf, frozen))
            return results[-1]

        monkeypatch.setattr(stages, "preprocess_cnf", recording)
        formula = benchmark_by_name("driver_s3_1", valid=False).formula
        outcome = registry.get("hybrid").solve(SolveRequest(formula=formula))
        names = [record.name for record in outcome.stages]
        assert "preprocess" in names
        record = next(r for r in outcome.stages if r.name == "preprocess")
        assert record.counters["clauses_before"] >= record.counters[
            "clauses_after"
        ]
        # The work counters show how much the stage did.
        (pre,) = results
        assert record.counters["rounds"] == pre.stats.rounds >= 1
        assert record.counters["clauses_scanned"] == (
            pre.stats.clauses_scanned
        )
        assert pre.stats.clauses_scanned >= 1

    def test_no_preprocess_skips_stage(self):
        from repro.engine import registry
        from repro.engine.contract import SolveRequest

        x, y = b.const("x"), b.const("y")
        formula = b.implies(b.eq(x, y), b.eq(y, x))
        outcome = registry.get("hybrid").solve(
            SolveRequest(formula=formula, preprocess=False)
        )
        assert "preprocess" not in [r.name for r in outcome.stages]


class TestFrozenVariables:
    """Frozen variables survive preprocessing, so clauses added over
    them afterwards (the in-search theory's conflict clauses) stay
    sound."""

    @staticmethod
    def sorted_clauses(cnf):
        return sorted(sorted(clause) for clause in cnf.clauses)

    def test_frozen_variables_are_neither_eliminated_nor_pure(self):
        # Unfrozen, 1 is resolved away (TestVariableElimination) and 3
        # is pure (TestPureLiterals); frozen, every clause stays.
        for clauses in ([[1, 2], [-1, 3], [-2, -3], [2, 3]], [[1, 3], [2, 3]]):
            cnf = make_cnf(3, clauses)
            pre = preprocess_cnf(cnf, frozen=[1, 2, 3])
            assert pre.stats.vars_eliminated == 0
            assert pre.stats.pure_literals == 0
            assert self.sorted_clauses(pre.simplified) == (
                self.sorted_clauses(cnf)
            )

    def test_fixed_frozen_variable_stays_as_a_unit_clause(self):
        # 1 forces 2 forces 3; only the frozen 2 keeps its unit.
        cnf = make_cnf(3, [[1], [-1, 2], [-2, 3]])
        pre = preprocess_cnf(cnf, frozen=[2])
        assert pre.stats.units_fixed == 3
        assert pre.simplified.clauses == [[2]]
        assert pre.stats.clauses_after == 1

    def test_added_clauses_over_frozen_variables_keep_equisat(self):
        rng = random.Random(20261018)

        def random_clauses(count, variables):
            return [
                [
                    rng.choice([-1, 1]) * rng.choice(variables)
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(count)
            ]

        for trial in range(150):
            n = rng.randint(2, 12)
            clauses = random_clauses(rng.randint(1, 35), range(1, n + 1))
            frozen = rng.sample(range(1, n + 1), rng.randint(1, n))
            pre = preprocess_cnf(make_cnf(n, clauses), frozen=frozen)
            extra = random_clauses(rng.randint(1, 4), frozen)
            original = make_cnf(n, clauses + extra)
            reference = solve_cnf(original)
            if pre.status == "UNSAT":
                assert reference.is_unsat, "trial %d" % trial
                continue
            # A frozen variable leaves the clause db only as a fixed
            # unit, and then the simplified CNF keeps that unit.
            for lit, removed in pre.stack:
                var = lit >> 1
                if var in frozen:
                    assert removed == [[lit]], "trial %d" % trial
                    signed = -var if lit & 1 else var
                    assert [signed] in pre.simplified.clauses
            pre.simplified.add_clauses(extra)
            result = solve_cnf(pre.simplified)
            assert result.status == reference.status, "trial %d" % trial
            if result.is_sat:
                assert_model_satisfies(original, pre.reconstruct(result.model))


class TestFixpoint:
    """The queues run until no rule applies to the simplified CNF."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_cnfs_reach_the_fixpoint(self, data):
        n = data.draw(st.integers(2, 16), label="vars")
        literal = st.integers(1, n).flatmap(
            lambda var: st.sampled_from([var, -var])
        )
        clauses = data.draw(
            st.lists(
                st.lists(literal, min_size=1, max_size=5),
                min_size=1,
                max_size=60,
            ),
            label="clauses",
        )
        frozen = data.draw(st.sets(st.integers(1, n)), label="frozen")
        pre = preprocess_cnf(make_cnf(n, clauses), frozen=frozen)
        if pre.status != "UNSAT":
            assert fixpoint_violations(pre, frozen) == ([], [], [])

    def test_suite_cnfs_reach_the_fixpoint(self, monkeypatch):
        # Every CNF the eager pipeline preprocesses on the 98 suite
        # queries under HYBRID, with the frozen set it passes.
        from repro.benchgen.suite import suite
        from repro.engine import registry, stages
        from repro.engine.contract import SolveRequest

        seen = []

        def recording(cnf, frozen=()):
            seen.append((preprocess_cnf(cnf, frozen), set(frozen)))
            return seen[-1][0]

        monkeypatch.setattr(stages, "preprocess_cnf", recording)
        engine = registry.get("hybrid")
        names = []
        for bench in suite(valid=True) + suite(valid=False):
            engine.solve(SolveRequest(formula=bench.formula))
            names.append(bench.name)
        assert len(seen) == len(names) == 98
        for name, (pre, frozen) in zip(names, seen):
            if pre.status != "UNSAT":
                assert fixpoint_violations(pre, frozen) == ([], [], []), name

    def test_unchanged_cnf_scans_each_clause_once(self):
        # Every variable frozen and no clause (self-)subsuming another:
        # no rule changes anything, so each clause serves as a subsumer
        # exactly once and one round finds the fixpoint.
        clauses = [[1, 2, 3], [-1, 4, 5], [-2, -4, 6], [3, -5, -6], [-3, 4, -6]]
        pre = preprocess_cnf(make_cnf(6, clauses), frozen=range(1, 7))
        assert TestFrozenVariables.sorted_clauses(pre.simplified) == sorted(
            sorted(clause) for clause in clauses
        )
        assert pre.stats.clauses_scanned == pre.stats.clauses_before == 5
        assert pre.stats.rounds == 1
