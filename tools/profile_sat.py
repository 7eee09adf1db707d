#!/usr/bin/env python
"""cProfile runner for one SAT instance or suite query (``make profile``).

Solves one generated CNF instance (named as in
``repro.benchgen.cnf.cnf_instance``: ``r3_<vars>_<clauses>_s<seed>`` or
``php_<pigeons>_<holes>``) under cProfile and prints the top functions
by internal time — the profile-first loop the arena refactor was tuned
with.  The hot loop should be dominated by ``_propagate``; anything
else rising to the top is the next target.

A suite benchmark name (``repro suite`` lists them, e.g. ``driver_s3_1``
or ``invariant_n10_1``) profiles that valid query end to end instead:
the eager pipeline (``run_eager``: func-elim, encode, cnf, preprocess,
sat, decode) with HYBRID under ``SolveRequest``'s default SEP_THOLD and
transitivity budget, the settings every caller and perfbench run.  The
settings, the status and every stage record are printed before the
profile table.  Classes with ``<`` or offsets go LAZY, so on the ooo,
driver and invariant families the ``sat`` stage's one search checks
their bounds as it assigns them (its record counts
``theory_conflicts``, the negative cycles learned as conflict clauses,
among its ``conflicts``): ``invariant_n13_4`` is decided, where it used
to stop at the transitivity budget as ``TRANSLATION_LIMIT``.

With ``--cube`` the same instance is solved by the cube-and-conquer
conductor instead: the conductor (cube generation, scheduling, clause
broadcast) is profiled in-process, every worker process runs under its
own cProfile and dumps pstats into a temp directory
(``REPRO_CUBE_PROFILE_DIR``), and the tool merges conductor + worker
profiles into one report — so the printed table covers the whole
parallel solve, not just the parent process.

Usage::

    PYTHONPATH=src python tools/profile_sat.py [instance] [--cube]
        [--procs 4] [--depth N] [--sort tottime] [--limit 20]
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import os
import pstats
import shutil
import sys
import tempfile


def _profile_suite(bench, args) -> int:
    """Profile the eager pipeline on one suite query; print its stages."""
    from repro.engine.contract import SolveRequest
    from repro.engine.stages import run_eager

    request = SolveRequest(formula=bench.formula)
    profiler = cProfile.Profile()
    profiler.enable()
    outcome = run_eager(request, method="hybrid")
    profiler.disable()
    print(
        "hybrid on %s (SEP_THOLD %d, budget %d)"
        % (args.instance, request.sep_thold, request.trans_budget)
    )
    print("status: %s" % outcome.status)
    for record in outcome.stats.stages:
        print("  %s" % record.describe())
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.limit)
    return 0


def _profile_cube(cnf, args) -> int:
    """Profile the conductor + workers; merge and print the pstats."""
    from repro.core.result import StageRecord
    from repro.engine.contract import SolveRequest
    from repro.engine.cube import DEFAULT_DEPTH, conquer
    from repro.logic.terms import BoolVar

    request = SolveRequest(
        formula=BoolVar("profile_cube_dummy"),
        options={
            "cube_depth": args.depth or DEFAULT_DEPTH,
            "cube_procs": args.procs,
        },
    )
    tmpdir = tempfile.mkdtemp(prefix="repro-cube-profile-")
    os.environ["REPRO_CUBE_PROFILE_DIR"] = tmpdir
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        record = StageRecord("sat", 0.0)
        result = conquer(cnf, request, record, [])
        profiler.disable()
        print(
            "cube on %s: %s (%d conflicts, %d cubes, %d workers)"
            % (
                args.instance,
                result.status,
                result.stats.conflicts,
                record.counters.get("cubes", 0),
                record.counters.get("workers", 1),
            )
        )
        stats = pstats.Stats(profiler)
        worker_dumps = sorted(
            glob.glob(os.path.join(tmpdir, "cube-worker-*.pstats"))
        )
        for dump in worker_dumps:
            stats.add(dump)
        print(
            "merged %d worker profile(s) from %s"
            % (len(worker_dumps), tmpdir)
        )
        stats.sort_stats(args.sort).print_stats(args.limit)
    finally:
        os.environ.pop("REPRO_CUBE_PROFILE_DIR", None)
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "instance",
        nargs="?",
        default="r3_190_808_s19",
        help=(
            "CNF instance name (default r3_190_808_s19) or suite "
            "benchmark name"
        ),
    )
    parser.add_argument(
        "--cube",
        action="store_true",
        help=(
            "profile the cube-and-conquer conductor; workers dump "
            "per-process pstats that are merged into the report"
        ),
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=4,
        help="cube workers with --cube (default 4; 1 = sequential)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        help="cube tree depth with --cube (default: engine default)",
    )
    parser.add_argument(
        "--sort",
        default="tottime",
        help="pstats sort key (default tottime)",
    )
    parser.add_argument(
        "--limit", type=int, default=20, help="rows to print (default 20)"
    )
    args = parser.parse_args(argv)

    from repro.benchgen.cnf import cnf_instance
    from repro.benchgen.suite import benchmark_by_name
    from repro.sat.solver import CdclSolver

    bench = benchmark_by_name(args.instance)
    if bench is not None:
        if args.cube:
            print(
                "profile: --cube takes a CNF instance name, not the suite "
                "query %r" % args.instance,
                file=sys.stderr,
            )
            return 2
        return _profile_suite(bench, args)

    try:
        cnf = cnf_instance(args.instance)
    except ValueError as exc:
        print(
            "profile: %s; nor is it a suite benchmark name" % exc,
            file=sys.stderr,
        )
        return 2

    if args.cube:
        return _profile_cube(cnf, args)

    solver = CdclSolver(cnf)
    profiler = cProfile.Profile()
    profiler.enable()
    result = solver.solve()
    profiler.disable()
    print(
        "arena on %s: %s (%d conflicts)"
        % (args.instance, result.status, result.stats.conflicts)
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
