"""Transitivity-constraint generation tests.

The central property (completeness): for any truth assignment to the EIJ
Boolean variables, the generated constraints are all satisfied *iff* the
asserted difference bounds have no negative cycle.  This is exactly what
makes ``F_trans ⟹ F_bvar`` equivalid with the input formula.
"""

import hashlib
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.encodings.sepvars import SepVarRegistry
from repro.encodings.transitivity import (
    TransitivityBudgetExceeded,
    TransitivityStats,
    equality_clause_bound,
    generate_equality_transitivity,
    generate_transitivity,
)
from repro.logic.terms import And, Not, Var
from repro.theory.difference import check_bounds

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def make_vars(n):
    return [Var("tv%d" % i) for i in range(n)]


class TestBasicGeneration:
    def test_empty_registry(self):
        registry = SepVarRegistry()
        assert generate_transitivity(registry, make_vars(3)) == []

    def test_triangle_chain(self):
        registry = SepVarRegistry()
        x, y, z = make_vars(3)
        registry.literal(x, y, 0)
        registry.literal(y, z, 0)
        registry.literal(x, z, 0)
        clauses = generate_transitivity(registry, [x, y, z])
        assert clauses  # at least the chained implication

    def test_budget_exceeded(self):
        registry = SepVarRegistry()
        vars_ = make_vars(8)
        rng = random.Random(0)
        for _ in range(40):
            a, c = rng.sample(vars_, 2)
            registry.literal(a, c, rng.randint(-5, 5))
        stats = TransitivityStats()
        with pytest.raises(TransitivityBudgetExceeded):
            generate_transitivity(registry, vars_, budget=3, stats=stats)

    def test_stats_populated(self):
        registry = SepVarRegistry()
        x, y, z = make_vars(3)
        registry.literal(x, y, 1)
        registry.literal(y, z, -2)
        registry.literal(x, z, 0)
        stats = TransitivityStats()
        generate_transitivity(registry, [x, y, z], stats=stats)
        assert stats.eliminated_nodes == 3
        assert stats.clauses > 0

    def test_other_class_vars_ignored(self):
        registry = SepVarRegistry()
        x, y, z, u, v = make_vars(5)
        registry.literal(x, y, 0)
        registry.literal(y, z, -1)
        registry.literal(x, z, 1)
        registry.literal(u, v, 0)
        registry.literal(x, u, 2)
        clauses = generate_transitivity(registry, [x, y, z])
        assert clauses
        # No literal of the class {x, y, z} may mention u or v.
        for clause in clauses:
            for literal in clause.args:
                bound = registry.bound_of_literal(literal)
                assert bound is not None
                assert not {bound.lhs, bound.rhs} & {u, v}

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 9), seed=st.integers(0, 1_000_000))
    def test_equality_clause_bound(self, n, seed):
        vars_ = make_vars(n)

        def clauses(compared):
            registry = SepVarRegistry()
            for a, c in compared:
                registry.eq_var(a, c)
            stats = TransitivityStats()
            generate_equality_transitivity(registry, vars_, stats=stats)
            return stats.clauses

        # Comparing every pair reaches the bound; a subset stays within.
        pairs = [(a, c) for i, a in enumerate(vars_) for c in vars_[i + 1:]]
        subset = random.Random(seed).sample(pairs, len(pairs) // 2)
        assert clauses(pairs) == equality_clause_bound(n)
        assert clauses(subset) <= equality_clause_bound(n)


def assignment_consistent(registry, assignment):
    """Theory-consistency of a full Boolean assignment via Bellman-Ford."""
    bounds = registry.asserted_bounds(assignment)
    return check_bounds(bounds).consistent


def constraints_satisfied(clauses, assignment, registry):
    """Is there an extension of ``assignment`` (to the derived variables)
    satisfying every transitivity clause?  Decided with the SAT solver."""
    from repro.sat.solver import solve_cnf
    from repro.sat.tseitin import to_cnf

    cnf = to_cnf(And(*clauses))
    for var, value in assignment.items():
        idx = cnf.var_for(var)
        cnf.add_clause([idx if value else -idx])
    return solve_cnf(cnf).is_sat


class TestCompleteness:
    """The paper's requirement: F_trans rules out exactly the assignments
    with no corresponding integer model."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_consistent_iff_extendable(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        vars_ = make_vars(n)
        registry = SepVarRegistry()
        atoms = []
        for _ in range(rng.randint(1, 7)):
            a, c = rng.sample(vars_, 2)
            atoms.append(registry.literal(a, c, rng.randint(-3, 3)))
        original_vars = registry.all_vars()
        clauses = generate_transitivity(registry, vars_)

        # Sample full assignments to the original variables.
        for _ in range(min(2 ** len(original_vars), 8)):
            assignment = {
                v: rng.random() < 0.5 for v in original_vars
            }
            consistent = assignment_consistent(registry, assignment)
            satisfied = constraints_satisfied(
                clauses, assignment, registry
            )
            # Consistent assignments extend to satisfy F_trans;
            # inconsistent ones must violate it under every extension.
            assert satisfied == consistent

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_no_clause_repeats(self, seed):
        # Why neither generator needs a seen-clause set.
        rng = random.Random(seed)
        vars_ = make_vars(rng.randint(3, 8))
        registry = SepVarRegistry()
        for _ in range(rng.randint(1, 16)):
            a, c = rng.sample(vars_, 2)
            if rng.random() < 0.5:
                registry.eq_var(a, c)
            registry.literal(a, c, rng.randint(-3, 3))
        for generate in (generate_transitivity, generate_equality_transitivity):
            clauses = generate(registry, vars_, budget=20_000)
            assert len({frozenset(c.args) for c in clauses}) == len(clauses)


def _pinned_registry(kind, tag, seed, n, count, spread=0):
    """``count`` random bounds (``kind == "diff"``) or equalities over
    ``n`` constants whose names no other test uses, so their uids follow
    creation order and the generated clauses are the same in any run."""
    rng = random.Random(seed)
    vars_ = [Var("%s_%d" % (tag, i)) for i in range(n)]
    registry = SepVarRegistry()
    for _ in range(count):
        a, b = rng.sample(vars_, 2)
        if kind == "diff":
            registry.literal(a, b, rng.randint(-spread, spread))
        else:
            registry.eq_var(a, b)
    return registry, vars_


def _clause_text(clause):
    """``clause`` as its literals' variable names, ``~`` marking negation
    (registry names contain ``|``, which the s-expression printer cannot
    quote)."""
    return " ".join(
        "~" + literal.arg.name if isinstance(literal, Not) else literal.name
        for literal in clause.args
    )


#: (kind, registry arguments, class size, SHA-256 of the clause list
#: printed one clause a line, TransitivityStats fields): the exact output
#: that F_trans and the CNF depend on.  The class is the first
#: ``class size`` constants, so the two ``-subset`` cases also pin the
#: filtering of pairs with a constant outside the class.
PINNED = [
    pytest.param(
        "diff", ("pin_dA", 11, 9, 16, 3), 9,
        "f57980f4695672fe3c51b1e8d984be5a21632292293572b40ceb70560893e5d2",
        (1717, 94, 8, 3), id="difference",
    ),
    pytest.param(
        "diff", ("pin_dB", 15, 10, 22, 2), 8,
        "5f1f32ae1a2b5db18000715e4f770ebed7353f1844ea6c903d999d37e944a35e",
        (423, 45, 8, 3), id="difference-subset",
    ),
    pytest.param(
        "eq", ("pin_eA", 13, 20, 45), 20,
        "eadc3687a80e378e49b185a23ffd75f54272321137ce00aae82c12950a81b91b",
        (240, 0, 20, 18), id="equality",
    ),
    pytest.param(
        "eq", ("pin_eB", 14, 24, 60), 20,
        "21f1616449c403daa22273699b46554ed4088156018198b2195e2ad63146f0ec",
        (216, 0, 19, 20), id="equality-subset",
    ),
]


def _run_pinned(kind, args, size, **kwargs):
    registry, vars_ = _pinned_registry(kind, *args)
    generate = (
        generate_transitivity if kind == "diff"
        else generate_equality_transitivity
    )
    return generate(registry, vars_[:size], **kwargs)


class TestPinnedOutput:
    """The generators' clause lists, in order, and their statistics."""

    @pytest.mark.parametrize("kind,args,size,digest,fields", PINNED)
    def test_clauses_and_stats(self, kind, args, size, digest, fields):
        stats = TransitivityStats()
        clauses = _run_pinned(kind, args, size, stats=stats)
        text = "\n".join(_clause_text(clause) for clause in clauses)
        # repro: ignore[RD204] -- compared with a pinned value, never stored
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert (
            stats.clauses,
            stats.derived_vars,
            stats.eliminated_nodes,
            stats.fill_edges,
        ) == fields

    @pytest.mark.parametrize("kind,args,size,digest,fields", PINNED)
    def test_budget_boundary(self, kind, args, size, digest, fields):
        n = fields[0]
        assert len(_run_pinned(kind, args, size, budget=n)) == n
        with pytest.raises(TransitivityBudgetExceeded) as info:
            _run_pinned(kind, args, size, budget=n - 1)
        if kind == "diff":
            assert info.value.clauses == n


class TestDeadline:
    @pytest.mark.parametrize("kind,args,size,digest,fields", PINNED)
    def test_far_deadline_changes_nothing(
        self, kind, args, size, digest, fields
    ):
        far = time.perf_counter() + 3600
        assert _run_pinned(kind, args, size, deadline=far) == _run_pinned(
            kind, args, size
        )

    def test_passed_deadline_trips_after_a_stride(self):
        # The clock is read every 1024 clauses, not before the first.
        with pytest.raises(TransitivityBudgetExceeded) as info:
            _run_pinned(
                "diff", ("pin_dA", 11, 9, 16, 3), 9,
                deadline=time.perf_counter(),
            )
        assert info.value.clauses == 1024
        assert "time limit" in str(info.value)

    def test_equality_deadline(self):
        vars_ = [Var("pin_eq_deadline_%d" % i) for i in range(24)]
        registry = SepVarRegistry()
        for i, a in enumerate(vars_):
            for b in vars_[i + 1:]:
                registry.eq_var(a, b)
        with pytest.raises(TransitivityBudgetExceeded) as info:
            generate_equality_transitivity(
                registry, vars_, deadline=time.perf_counter()
            )
        assert info.value.clauses == 1026  # whole triangles of 3 clauses
        assert "time limit" in str(info.value)


class TestBudgetTrip:
    def test_tripped_budget_interns_few_nodes(self):
        # A fresh interpreter, so the growth is not hidden by nodes other
        # tests already interned.  Building the clause formulas of a
        # class that then trips the budget would intern one Or per clause.
        script = (
            "from repro.benchgen.suite import benchmark_by_name\n"
            "from repro.encodings.hybrid import encode_hybrid\n"
            "from repro.encodings.transitivity import "
            "TransitivityBudgetExceeded\n"
            "from repro.logic.terms import intern_cache_size\n"
            "from repro.transform.func_elim import eliminate_applications\n"
            "bench = benchmark_by_name('invariant_n10_1')\n"
            "f_sep, _ = eliminate_applications(bench.formula)\n"
            "before = intern_cache_size()\n"
            "try:\n"
            "    encode_hybrid(f_sep, trans_budget=20000)\n"
            "except TransitivityBudgetExceeded as exc:\n"
            "    print(exc.clauses, intern_cache_size() - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            timeout=120,
        )
        clauses, growth = map(int, out.stdout.split())
        assert clauses == 20001
        assert growth < 2000
