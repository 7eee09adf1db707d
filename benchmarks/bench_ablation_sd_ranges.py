"""ABL4 — SD range allocation: uniform window vs ascending (Pnueli et al.).

The paper's SD method gives every class constant the same per-class
window (§4 step 3); its reference [12] (Pnueli, Rodeh, Shtrichman,
Siegel) shows equality variables only need ascending ranges {0..i}.
This ablation measures both allocations on the equality-dense benchmarks
where SD struggles — the tighter domains collapse the SAT search.

Run:  pytest benchmarks/bench_ablation_sd_ranges.py --benchmark-only -q
"""

import pytest

from repro.benchgen.suite import non_invariant_suite
from repro.core.decision import check_validity
from repro.experiments.runner import DEFAULT_TIMEOUT

# The equality-dense families where SD's search dominates.
PICKS = [
    b
    for b in non_invariant_suite()
    if b.domain in ("cache", "pipeline", "transval")
][:9]

_ROWS = {}


@pytest.mark.parametrize("bench", PICKS, ids=lambda b: b.name)
@pytest.mark.parametrize("ranges", ["uniform", "ascending"])
def test_sd_range_allocation(benchmark, bench, ranges):
    benchmark.group = "ABL4 %s" % bench.name
    out = {}

    def target():
        out["result"] = check_validity(
            bench.formula,
            method="sd",
            sd_ranges=ranges,
            time_limit=DEFAULT_TIMEOUT,
            want_countermodel=False,
        )

    benchmark.pedantic(target, rounds=1, iterations=1)
    result = out["result"]
    if result.valid is not None:
        assert result.valid == bench.expected_valid
    benchmark.extra_info["status"] = result.status
    benchmark.extra_info["conflicts"] = result.stats.conflict_clauses
    _ROWS[(bench.name, ranges)] = result


def test_sd_range_summary(capsys):
    names = sorted({name for name, _ in _ROWS})
    if len(names) < len(PICKS):
        pytest.skip("measurement rows incomplete")
    wins = sum(
        1
        for n in names
        if _ROWS[(n, "ascending")].valid is not None
        and (
            _ROWS[(n, "uniform")].valid is None
            or _ROWS[(n, "ascending")].stats.total_seconds
            <= _ROWS[(n, "uniform")].stats.total_seconds + 0.05
        )
    )
    with capsys.disabled():
        print("\nABL4 summary (ascending ranges on equality-only classes):")
        for n in names:
            uni = _ROWS[(n, "uniform")]
            asc = _ROWS[(n, "ascending")]
            print(
                "  %-22s uniform %-8s %6.2fs (%6d conf) | "
                "ascending %-8s %6.2fs (%6d conf)"
                % (
                    n,
                    uni.status,
                    uni.stats.total_seconds,
                    uni.stats.conflict_clauses,
                    asc.status,
                    asc.stats.total_seconds,
                    asc.stats.conflict_clauses,
                )
            )
        print("  ascending at-least-as-fast on %d/%d" % (wins, len(names)))
    assert wins * 2 >= len(names)
