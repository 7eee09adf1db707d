"""Ablation studies for the design choices DESIGN.md calls out.

ABL1 — threshold sensitivity: HYBRID with SEP_THOLD in {0, 30, 100, 700,
inf}.  The endpoints coincide with SD and EIJ by construction (§4: "when
SEP_THOLD = 0, HYBRID is the same as SD"), so this sweep shows the whole
SD <-> EIJ spectrum and where the default sits in it.

ABL2 — feature-based vs fixed hybrid: the paper's §1/§3 notes that the
authors' earlier CFV'02 hybrid (equalities -> EIJ, everything else -> SD,
decided *statically*, independent of formula features) "met with limited
success".  This ablation runs that static scheme against feature-based
HYBRID on both benchmark groups.

ABL3 — incremental vs restarting lazy refinement: CVC's refinement loop
reused an incremental Chaff; the restart mode starts SAT afresh every
round.  Both modes of the lazy procedure run on ordering-heavy formulas,
whose refinement loop iterates.

ABL4 — SD range allocation: the paper's SD gives every class constant the
same window (§4 step 3); its reference [12] (Pnueli et al.) shows
equality variables need only ascending ranges {0..i}.  Both allocations
run on the equality-dense formulas where SD's search dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..benchgen.suite import invariant_suite, non_invariant_suite, sample16
from .report import Claim, counted, format_seconds, table, with_claims
from .runner import DEFAULT_TIMEOUT, TIME_MARGIN, RunRow, run_benchmark

__all__ = [
    "run_threshold_sweep",
    "render_threshold_sweep",
    "sweep_claims",
    "run_static_vs_hybrid",
    "render_static_vs_hybrid",
    "static_claims",
    "run_lazy_modes",
    "render_lazy_modes",
    "run_sd_ranges",
    "render_sd_ranges",
    "ranges_claims",
]

SWEEP_THOLDS = (0, 30, 100, 700, None)  # None = infinity = pure EIJ

#: The ABL1 claim's formulas, every third of the sample.  The whole
#: sample holds three SD-friendly invariant formulas, so there T=0
#: decides more than the default (EXPERIMENTS.md, ABL1).
SWEEP_CLAIM_SLICE = (
    "pipeline_s2_r2_1",
    "loadstore_e12_p24_5",
    "ooo_t15_6",
    "driver_s4_2",
    "transval_s1_i3_1",
    "invariant_n18_9",
)

Sweep = Dict[str, Dict[Optional[int], RunRow]]


def _run_hybrid_at(bench, thold: Optional[int], timeout: float) -> RunRow:
    if thold is None:
        return run_benchmark(bench, "EIJ", timeout)
    return run_benchmark(bench, "HYBRID", timeout, sep_thold=thold)


def run_threshold_sweep(timeout: float = DEFAULT_TIMEOUT) -> Sweep:
    out: Sweep = {}
    for bench in sample16():
        out[bench.name] = {
            thold: _run_hybrid_at(bench, thold, timeout)
            for thold in SWEEP_THOLDS
        }
    return out


def _decided(
    results: Sweep, names: Iterable[str], thold: Optional[int]
) -> int:
    return sum(1 for name in names if not results[name][thold].timed_out)


def render_threshold_sweep(results: Sweep) -> str:
    headers = ["Benchmark"] + [
        "T=%s" % ("inf" if t is None else t) for t in SWEEP_THOLDS
    ]
    body = []
    for name, runs in results.items():
        body.append(
            [name]
            + [
                format_seconds(
                    runs[t].total_seconds, runs[t].timed_out
                )
                for t in SWEEP_THOLDS
            ]
        )
    totals = ["decided"]
    for t in SWEEP_THOLDS:
        totals.append("%d/%d" % (_decided(results, results, t), len(results)))
    out = ["ABL1: SEP_THOLD sensitivity (T=0 is SD, T=inf is EIJ)"]
    out.append(table(headers, body + [totals]))
    return "\n".join(out)


def sweep_claims(results: Sweep) -> List[Claim]:
    """The default decides at most one formula fewer than the better
    endpoint, on :data:`SWEEP_CLAIM_SLICE`."""
    names = SWEEP_CLAIM_SLICE
    best_end = max(
        _decided(results, names, 0), _decided(results, names, None)
    )
    return [
        counted(
            "ABL1",
            "on %s, T=100 decides at most one fewer than the better of "
            "T=0 and T=inf" % ", ".join(names),
            _decided(results, names, 100),
            len(names),
            best_end - 1,
        )
    ]


@dataclass
class StaticRow:
    benchmark: str
    group: str
    hybrid: RunRow
    static: RunRow


def run_static_vs_hybrid(timeout: float = DEFAULT_TIMEOUT) -> List[StaticRow]:
    rows = []
    for group, benches in (
        ("non-invariant", non_invariant_suite()),
        ("invariant", invariant_suite()),
    ):
        for bench in benches:
            rows.append(
                StaticRow(
                    benchmark=bench.name,
                    group=group,
                    hybrid=run_benchmark(bench, "HYBRID", timeout),
                    static=run_benchmark(bench, "STATIC", timeout),
                )
            )
    return rows


def render_static_vs_hybrid(rows: List[StaticRow]) -> str:
    headers = ["Benchmark", "Group", "HYBRID", "STATIC (CFV'02)"]
    body = [
        [
            r.benchmark,
            r.group,
            format_seconds(r.hybrid.total_seconds, r.hybrid.timed_out),
            format_seconds(r.static.total_seconds, r.static.timed_out),
        ]
        for r in rows
    ]
    out = ["ABL2: feature-based HYBRID vs fixed (static) hybrid"]
    out.append(table(headers, body))
    return "\n".join(out)


def static_claims(rows: List[StaticRow]) -> List[Claim]:
    """On the non-invariant group, feature-based selection decides at
    least as many formulas as the fixed scheme."""
    group = [r for r in rows if r.group == "non-invariant"]
    return [
        counted(
            "ABL2",
            "on the non-invariant group, HYBRID decides at least as many "
            "formulas as STATIC",
            sum(1 for r in group if not r.hybrid.timed_out),
            len(group),
            sum(1 for r in group if not r.static.timed_out),
        )
    ]


#: One formula run under both settings of one knob: (incremental,
#: restart) in ABL3, (uniform, ascending) in ABL4.
ModeRows = Tuple[RunRow, RunRow]


def run_lazy_modes(timeout: float = DEFAULT_TIMEOUT) -> List[ModeRows]:
    picks = [
        b for b in non_invariant_suite() if b.domain in ("ooo", "driver")
    ][:6]
    return [
        (
            run_benchmark(bench, "CVC(lazy)", timeout),
            run_benchmark(bench, "CVC(lazy)", timeout, incremental=False),
        )
        for bench in picks
    ]


def render_lazy_modes(rows: List[ModeRows]) -> str:
    headers = [
        "Benchmark",
        "Incremental",
        "Restart",
        "Iterations inc",
        "Iterations restart",
    ]
    body = [
        [
            inc.benchmark,
            format_seconds(inc.total_seconds, inc.timed_out),
            format_seconds(restart.total_seconds, restart.timed_out),
            inc.refinements,
            restart.refinements,
        ]
        for inc, restart in rows
    ]
    out = ["ABL3: incremental vs restarting lazy refinement (CVC(lazy))"]
    out.append(table(headers, body))
    return "\n".join(out)


def run_sd_ranges(timeout: float = DEFAULT_TIMEOUT) -> List[ModeRows]:
    """(uniform, ascending) SD rows of the first nine equality-dense
    non-invariant formulas."""
    picks = [
        b
        for b in non_invariant_suite()
        if b.domain in ("cache", "pipeline", "transval")
    ][:9]
    return [
        (
            run_benchmark(bench, "SD", timeout),
            run_benchmark(bench, "SD", timeout, sd_ranges="ascending"),
        )
        for bench in picks
    ]


def render_sd_ranges(rows: List[ModeRows]) -> str:
    headers = [
        "Benchmark",
        "Uniform",
        "Ascending",
        "Conflict cl. uniform",
        "Conflict cl. ascending",
    ]
    body = [
        [
            uni.benchmark,
            format_seconds(uni.total_seconds, uni.timed_out),
            format_seconds(asc.total_seconds, asc.timed_out),
            uni.conflict_clauses,
            asc.conflict_clauses,
        ]
        for uni, asc in rows
    ]
    out = ["ABL4: SD range allocation, uniform window vs ascending ranges"]
    out.append(table(headers, body))
    return "\n".join(out)


def ranges_claims(rows: List[ModeRows]) -> List[Claim]:
    """Ascending ranges are no slower than the uniform window on at
    least half the formulas."""
    return [
        counted(
            "ABL4",
            "ascending ranges take at most the uniform window's time + "
            "%.2f s on at least half the formulas" % TIME_MARGIN,
            sum(1 for uni, asc in rows if asc.within(uni)),
            len(rows),
            (len(rows) + 1) // 2,
        )
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    sweep = run_threshold_sweep(timeout)
    static = run_static_vs_hybrid(timeout)
    lazy = run_lazy_modes(timeout)
    ranges = run_sd_ranges(timeout)
    sections = [
        (render_threshold_sweep(sweep), sweep_claims(sweep)),
        (render_static_vs_hybrid(static), static_claims(static)),
        (render_lazy_modes(lazy), []),
        (render_sd_ranges(ranges), ranges_claims(ranges)),
    ]
    text = "\n\n".join(with_claims(body, found) for body, found in sections)
    return text, [claim for _, found in sections for claim in found]
