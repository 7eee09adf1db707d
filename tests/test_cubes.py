"""Lookahead cube generator tests: determinism, coverage, failed literals."""

from repro.benchgen.cnf import pigeonhole_cnf, random_3cnf
from repro.sat.cnf import Cnf
from repro.sat.cubes import (
    CubeConfig,
    CubeSplitter,
    generate_cubes,
)
from repro.sat.solver import CdclSolver


def make_cnf(num_vars, clauses):
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    cnf.add_clauses(clauses)
    return cnf


def conquer(cnf, cube_set):
    """Solve every cube under assumptions; the disjunction's verdict."""
    solver = CdclSolver(cnf)
    for unit in cube_set.units:
        solver.add_clause([unit])
    for cube in cube_set.cubes:
        result = solver.solve_under_assumptions(cube)
        if result.is_sat:
            return "SAT"
        assert result.is_unsat
    return "UNSAT"


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cnf = pigeonhole_cnf(6, 5)
        config = CubeConfig(depth=3, seed=11)
        first = generate_cubes(cnf, config)
        second = generate_cubes(cnf, config)
        assert first.status == second.status
        assert first.cubes == second.cubes
        assert first.units == second.units
        assert first.stats == second.stats

    def test_seed_changes_tree_but_not_verdict(self):
        cnf = random_3cnf(3, 60, 250)
        sets = [
            generate_cubes(cnf, CubeConfig(depth=3, seed=seed))
            for seed in (0, 1, 2)
        ]
        verdicts = {conquer(cnf, cs) for cs in sets}
        assert len(verdicts) == 1

    def test_repeat_conquer_verdict_and_cube_count_stable(self):
        cnf = pigeonhole_cnf(6, 5)
        runs = [
            generate_cubes(cnf, CubeConfig(depth=4, seed=0))
            for _ in range(3)
        ]
        assert len({len(r.cubes) for r in runs}) == 1
        assert len({conquer(cnf, r) for r in runs}) == 1


class TestCoverage:
    def test_unsat_instance_every_cube_refutes(self):
        cnf = pigeonhole_cnf(6, 5)
        cube_set = generate_cubes(cnf, CubeConfig(depth=3))
        assert cube_set.status == "SPLIT"
        assert len(cube_set.cubes) > 1
        assert conquer(cnf, cube_set) == "UNSAT"

    def test_sat_instance_some_cube_satisfiable(self):
        cnf = random_3cnf(3, 100, 426)
        cube_set = generate_cubes(cnf, CubeConfig(depth=3))
        assert conquer(cnf, cube_set) == "SAT"

    def test_direct_solver_agrees(self):
        for seed in range(4):
            cnf = random_3cnf(seed, 40, 168)
            direct = CdclSolver(cnf).solve()
            cube_set = generate_cubes(cnf, CubeConfig(depth=2))
            if cube_set.status == "UNSAT":
                assert direct.is_unsat
            else:
                expected = "SAT" if direct.is_sat else "UNSAT"
                assert conquer(cnf, cube_set) == expected

    def test_max_cubes_cap(self):
        cnf = random_3cnf(5, 80, 300)
        cube_set = generate_cubes(
            cnf, CubeConfig(depth=10, max_cubes=8)
        )
        assert cube_set.status == "SPLIT"
        assert len(cube_set.cubes) <= 8


class TestRootOutcomes:
    def test_unsat_at_root(self):
        cnf = make_cnf(1, [[1], [-1]])
        cube_set = generate_cubes(cnf)
        assert cube_set.status == "UNSAT"
        assert cube_set.cubes == []

    def test_failed_literal_becomes_root_unit(self):
        # Assigning 1 propagates 2 and -2: the positive polarity fails,
        # so -1 is a root unit.  Extra clauses keep var 1 splittable-
        # looking (nonzero occurrence) without deciding the formula.
        cnf = make_cnf(
            4, [[-1, 2], [-1, -2], [1, 3, 4], [3, -4], [-3, 4]]
        )
        cube_set = generate_cubes(cnf, CubeConfig(depth=2))
        assert -1 in cube_set.units
        assert cube_set.stats.failed_literals >= 1


class TestPreference:
    def test_preferred_var_splits_first(self):
        # Var 5 occurs less than vars 1..4 but is preferred (the EIJ
        # hook's role): every cube's first decision must be on var 5.
        clauses = [
            [1, 2], [1, -2], [-1, 2], [2, 3], [-2, -3], [3, 4],
            [-3, 4], [1, 4], [5, 1, 2], [-5, 3, 4],
        ]
        cnf = make_cnf(5, clauses)
        cube_set = generate_cubes(
            cnf, CubeConfig(depth=1, prefer_vars=[5])
        )
        assert cube_set.status == "SPLIT"
        assert {abs(cube[0]) for cube in cube_set.cubes if cube} == {5}

    def test_out_of_range_preferred_vars_ignored(self):
        cnf = random_3cnf(7, 30, 120)
        config = CubeConfig(depth=2, prefer_vars=[0, 999, -3])
        cube_set = generate_cubes(cnf, config)
        assert conquer(cnf, cube_set) in ("SAT", "UNSAT")


class TestSplitter:
    def test_resplit_extends_cube(self):
        cnf = pigeonhole_cnf(6, 5)
        cube_set = generate_cubes(cnf, CubeConfig(depth=2))
        splitter = CubeSplitter(cnf, CubeConfig(depth=2))
        assert splitter.ok
        cube = cube_set.cubes[0]
        children = splitter.resplit(cube)
        assert children is not None
        for child in children:
            assert child[: len(cube)] == cube
            assert len(child) > len(cube)

    def test_resplit_refuted_cube_returns_none(self):
        cnf = make_cnf(3, [[-1, 2], [-2, 3], [-3, -1], [1, 2, 3]])
        splitter = CubeSplitter(cnf)
        # Assuming 1 propagates 2, 3, then conflicts with [-3, -1].
        assert splitter.resplit([1]) is None

    def test_add_units_detects_contradiction(self):
        cnf = make_cnf(2, [[1, 2]])
        splitter = CubeSplitter(cnf)
        splitter.add_units([1])
        assert splitter.ok
        splitter.add_units([-1])
        assert not splitter.ok
        assert splitter.resplit([2]) is None
