"""THOLD — automatic SEP_THOLD selection (paper §4.1).

The paper selects the default threshold by clustering the normalized EIJ
run-times of the 16-benchmark sample and rounding the boundary benchmark's
separation-predicate count up to a multiple of 100 (their sample: n_k=676,
threshold 700).  This benchmark reruns the procedure on this repository's
sample and asserts the default every solve uses (``DEFAULT_SEP_THOLD``).

Run:  pytest benchmarks/bench_threshold_selection.py --benchmark-only -q
"""

import pytest

from repro.encodings.hybrid import DEFAULT_SEP_THOLD
from repro.experiments.runner import DEFAULT_TIMEOUT
from repro.experiments.threshold_exp import run_threshold_selection


def test_threshold_selection(benchmark, capsys):
    result = {}

    def target():
        result["selection"], result["rows"] = run_threshold_selection(
            timeout=DEFAULT_TIMEOUT
        )

    benchmark.pedantic(target, rounds=1, iterations=1)
    selection = result["selection"]
    benchmark.extra_info["threshold"] = selection.threshold
    benchmark.extra_info["boundary_n_k"] = selection.boundary_sep_count
    with capsys.disabled():
        print(
            "\nTHOLD summary: boundary n_k=%d -> SEP_THOLD=%d "
            "(paper: n_k=676 -> 700 on its own suite; default in "
            "use: %d)"
            % (
                selection.boundary_sep_count,
                selection.threshold,
                DEFAULT_SEP_THOLD,
            )
        )
    # The auto-selected value must match the default every solve uses.
    assert selection.threshold == DEFAULT_SEP_THOLD
