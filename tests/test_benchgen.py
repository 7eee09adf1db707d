"""Tests for the benchmark generators and the 49-formula suite."""

import pytest

from repro.benchgen import (
    make_cache,
    make_driver,
    make_invariant,
    make_loadstore,
    make_ooo,
    make_pipeline,
    make_transval,
)
from repro.benchgen.cnf import cnf_instance, pigeonhole_cnf, random_3cnf
from repro.benchgen.suite import (
    DOMAINS,
    benchmark_by_name,
    invariant_suite,
    non_invariant_suite,
    sample16,
    suite,
)
from repro.core import check_validity
from repro.solvers.brute import BruteForceLimitExceeded, brute_force_valid

FACTORIES = {
    "pipeline": lambda **kw: make_pipeline(stages=3, reads=2, **kw),
    "loadstore": lambda **kw: make_loadstore(entries=3, pointers=4, **kw),
    "ooo": lambda **kw: make_ooo(tags=4, **kw),
    "cache": lambda **kw: make_cache(caches=2, **kw),
    "driver": lambda **kw: make_driver(steps=3, **kw),
    "transval": lambda **kw: make_transval(size=2, inputs=3, **kw),
    "invariant": lambda **kw: make_invariant(cells=4, **kw),
}


class TestGeneratorCorrectness:
    """Small instances of every family have their claimed validity —
    verified with the decision procedure (cross-checked elsewhere against
    brute force) in both the valid and the mutated variant."""

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_valid_instances(self, family, seed):
        bench = FACTORIES[family](seed=seed)
        assert bench.expected_valid
        result = check_validity(bench.formula, want_countermodel=False)
        assert result.valid is True, bench.name

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_invalid_mutants(self, family, seed):
        bench = FACTORIES[family](seed=seed, valid=False)
        assert not bench.expected_valid
        result = check_validity(bench.formula, want_countermodel=False)
        assert result.valid is False, bench.name

    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_brute_force_agrees_on_tiny_instances(self, family):
        bench = FACTORIES[family](seed=2)
        try:
            assert brute_force_valid(bench.formula, limit=500_000)
        except BruteForceLimitExceeded as exc:
            # The remaining families exceed the oracle by orders of
            # magnitude (4e8 .. 1e17 interpretations) at their *smallest*
            # usable sizes, so no limit bump can unskip them; their
            # verdicts are cross-checked by the eager/lazy/SVC agreement
            # tests and the differential fuzz campaign instead.
            pytest.skip(
                "%s (%d DAG nodes) is beyond brute force: %s"
                % (bench.name, bench.dag_size, exc)
            )


class TestDeterminism:
    @pytest.mark.parametrize("family", sorted(FACTORIES))
    def test_same_seed_same_formula(self, family):
        a = FACTORIES[family](seed=5)
        c = FACTORIES[family](seed=5)
        assert a.formula is c.formula  # hash consing makes this exact
        assert a.name == c.name

    def test_different_seed_can_differ(self):
        # Seeded RNG families must actually use the seed.
        a = make_invariant(cells=6, seed=1)
        c = make_invariant(cells=6, seed=2)
        assert a.formula is not c.formula


class TestSuiteShape:
    def test_counts(self):
        assert len(suite()) == 49
        assert len(non_invariant_suite()) == 39
        assert len(invariant_suite()) == 10
        assert len(sample16()) == 16

    def test_every_domain_in_sample(self):
        domains = {bench.domain for bench in sample16()}
        assert domains == set(DOMAINS)

    def test_invariant_flags(self):
        assert all(bench.invariant_checking for bench in invariant_suite())
        assert not any(
            bench.invariant_checking for bench in non_invariant_suite()
        )

    def test_unique_names(self):
        names = [bench.name for bench in suite()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        bench = suite()[0]
        found = benchmark_by_name(bench.name)
        assert found is not None
        assert found.formula is bench.formula
        assert benchmark_by_name("nonexistent") is None
        mutant = benchmark_by_name(bench.name, valid=False)
        assert mutant is not None and not mutant.expected_valid

    def test_sizes_recorded(self):
        for bench in suite():
            assert bench.dag_size > 10
            assert bench.params


class TestInvariantCharacteristics:
    """The paper's description of the invariant formulas: many
    inequalities, almost no p-functions, few large classes."""

    def test_class_structure(self):
        from repro.separation.analysis import analyze_separation
        from repro.transform.func_elim import eliminate_applications

        bench = make_invariant(cells=10, seed=1)
        f_sep, _ = eliminate_applications(bench.formula)
        analysis = analyze_separation(f_sep)
        assert len(analysis.classes) == 1  # a single large class
        vclass = analysis.classes[0]
        assert len(vclass.vars) >= 12
        assert vclass.has_inequality
        assert vclass.has_offset
        # p-fraction near zero.
        total = len(analysis.p_vars) + len(analysis.g_vars)
        assert len(analysis.p_vars) / total < 0.1

    def test_pipeline_is_positive_equality_heavy(self):
        from repro.separation.analysis import analyze_separation
        from repro.transform.func_elim import eliminate_applications

        bench = make_pipeline(stages=4, reads=2, seed=1)
        f_sep, _ = eliminate_applications(bench.formula)
        analysis = analyze_separation(f_sep)
        # The data values (writeback results, regfile/alu outputs) are all
        # p-function applications; only the register indices are general.
        assert len(analysis.p_vars) >= 2
        assert all(
            not c.has_inequality and not c.has_offset
            for c in analysis.classes
        )


class TestSatCoreGenerators:
    def test_random_3cnf_deterministic_and_shaped(self):
        a = random_3cnf(7, 30, 90)
        b = random_3cnf(7, 30, 90)
        assert a.clauses == b.clauses
        assert a.num_vars == 30
        assert len(a.clauses) == 90
        for clause in a.clauses:
            assert len(clause) == 3
            assert len({abs(lit) for lit in clause}) == 3

    def test_pigeonhole_shape(self):
        cnf = pigeonhole_cnf(4, 3)
        assert cnf.num_vars == 12
        # 4 at-least-one clauses + 3 * C(4,2) at-most-one binaries.
        assert len(cnf.clauses) == 4 + 3 * 6

    def test_instance_lookup(self):
        cnf = cnf_instance("php_6_5")
        assert cnf.num_vars == 30
        for bad in ("no_such_instance", "r3_10_20", "php_6", "php_6_5_x"):
            with pytest.raises(ValueError):
                cnf_instance(bad)

    def test_names_encode_parameters(self):
        cnf = cnf_instance("r3_190_808_s19")
        assert cnf.num_vars == 190
        assert cnf.clauses == random_3cnf(19, 190, 808).clauses
        assert cnf_instance("php_9_8").clauses == pigeonhole_cnf(9, 8).clauses
