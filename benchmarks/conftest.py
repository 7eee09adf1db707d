"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` file regenerates one table/figure of the paper:
the pytest-benchmark timing rows mirror the figure's series (one row per
benchmark × procedure), and a summary of the figure-level claim is printed
at the end of the module's run.

Every decision run uses the same resource budgets as the experiment
harness (its 20 s time limit and ``SolveRequest``'s default
transitivity-clause budget); timed-out runs are recorded via the
``status`` extra-info field rather than failing the benchmark.
"""

import pytest

from repro.benchgen.base import Benchmark
from repro.experiments.runner import DEFAULT_TIMEOUT, run_benchmark


def decide_once(benchmark, bench: Benchmark, procedure: str, **kw):
    """Run one (suite benchmark, procedure) pair under pytest-benchmark.

    ``rounds=1`` — these are seconds-long end-to-end solver runs; the
    wall-clock of a single run is the figure's datum.
    """
    rows = {}

    def target():
        rows["row"] = run_benchmark(
            bench, procedure, timeout=DEFAULT_TIMEOUT, **kw
        )

    benchmark.pedantic(target, rounds=1, iterations=1)
    row = rows["row"]
    benchmark.extra_info["status"] = row.status
    benchmark.extra_info["dag_nodes"] = row.dag_size
    benchmark.extra_info["sep_predicates"] = row.sep_predicates
    benchmark.extra_info["cnf_clauses"] = row.cnf_clauses
    benchmark.extra_info["conflict_clauses"] = row.conflict_clauses
    return row
