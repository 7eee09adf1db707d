"""ABL3 — incremental vs restarting lazy refinement (repository ablation).

CVC's refinement loop reused an incremental Chaff; a naive reimplementation
restarts SAT every round.  This ablation measures both modes of our lazy
procedure on refinement-heavy formulas, quantifying the per-iteration
overhead the paper attributes to the lazy approach.

Run:  pytest benchmarks/bench_ablation_lazy.py --benchmark-only -q
"""

import pytest

from repro.benchgen.suite import non_invariant_suite
from repro.solvers.lazy import check_validity_lazy

# Ordering-heavy formulas make the refinement loop iterate.
PICKS = [
    b for b in non_invariant_suite() if b.domain in ("ooo", "driver")
][:6]

_ROWS = {}


@pytest.mark.parametrize("bench", PICKS, ids=lambda b: b.name)
@pytest.mark.parametrize("mode", ["incremental", "restart"])
def test_lazy_modes(benchmark, bench, mode):
    benchmark.group = "ABL3 %s" % bench.name
    out = {}

    def target():
        out["result"] = check_validity_lazy(
            bench.formula,
            time_limit=20.0,
            want_countermodel=False,
            incremental=(mode == "incremental"),
        )

    benchmark.pedantic(target, rounds=1, iterations=1)
    result = out["result"]
    if result.valid is not None:
        assert result.valid == bench.expected_valid
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["iterations"] = result.stats.counter(
        "refine", "iterations"
    )
    _ROWS[(bench.name, mode)] = result


def test_lazy_modes_summary(capsys):
    names = sorted({name for name, _ in _ROWS})
    if len(names) < len(PICKS):
        pytest.skip("measurement rows incomplete")
    with capsys.disabled():
        print("\nABL3 summary (refinement iterations are identical; the "
              "incremental mode amortises the SAT state):")
        for n in names:
            inc = _ROWS[(n, "incremental")]
            res = _ROWS[(n, "restart")]
            print(
                "  %-20s iterations inc=%d restart=%d  status %s/%s"
                % (
                    n,
                    inc.stats.counter("refine", "iterations"),
                    res.stats.counter("refine", "iterations"),
                    inc.status,
                    res.status,
                )
            )
