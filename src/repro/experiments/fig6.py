"""Figure 6 — HYBRID vs other decision procedures (SVC, CVC).

The paper compares HYBRID (default threshold) against SVC 1.1 and CVC on
the 39 non-invariant benchmarks:

* SVC wins only on small, conjunction-dominated formulas (its conjunction
  core is a shortest-path check) and blows up on disjunctive ones;
* CVC's lazy refinement pays a per-iteration overhead and loses by orders
  of magnitude except on conjunctions that one conflict clause settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..benchgen.suite import non_invariant_suite
from .fig4 import best_speedup
from .report import (
    Claim,
    ascii_scatter,
    counted,
    format_seconds,
    table,
    with_claims,
)
from .runner import DEFAULT_TIMEOUT, TIME_MARGIN, RunRow, run_benchmark

__all__ = ["Fig6Row", "run_fig6", "render_fig6", "claims"]


@dataclass
class Fig6Row:
    benchmark: str
    hybrid: RunRow
    svc: RunRow
    cvc: RunRow


def run_fig6(timeout: float = DEFAULT_TIMEOUT) -> List[Fig6Row]:
    rows = []
    for bench in non_invariant_suite():
        rows.append(
            Fig6Row(
                benchmark=bench.name,
                hybrid=run_benchmark(bench, "HYBRID", timeout),
                svc=run_benchmark(bench, "SVC(split)", timeout),
                cvc=run_benchmark(bench, "CVC(lazy)", timeout),
            )
        )
    return rows


def render_fig6(rows: List[Fig6Row], timeout: float = DEFAULT_TIMEOUT) -> str:
    headers = ["Benchmark", "HYBRID", "SVC(split)", "CVC(lazy)"]
    body = []
    svc_pts: List[Tuple[float, float]] = []
    cvc_pts: List[Tuple[float, float]] = []
    for row in rows:
        body.append(
            [
                row.benchmark,
                format_seconds(row.hybrid.total_seconds, row.hybrid.timed_out),
                format_seconds(row.svc.total_seconds, row.svc.timed_out),
                format_seconds(row.cvc.total_seconds, row.cvc.timed_out),
            ]
        )
        hx = timeout if row.hybrid.timed_out else row.hybrid.total_seconds
        svc_pts.append(
            (hx, timeout if row.svc.timed_out else row.svc.total_seconds)
        )
        cvc_pts.append(
            (hx, timeout if row.cvc.timed_out else row.cvc.total_seconds)
        )
    out = ["FIG6: HYBRID vs SVC-style and CVC-style procedures"]
    out.append(table(headers, body))
    out.append("")
    out.append(
        ascii_scatter(
            {"SVC": svc_pts, "CVC": cvc_pts},
            xlabel="HYBRID time (s)",
            ylabel="SVC/CVC time (s)",
        )
    )
    out.append(best_speedup([(r.hybrid, r.svc) for r in rows]))
    out.append(best_speedup([(r.hybrid, r.cvc) for r in rows]))
    return "\n".join(out)


def claims(rows: List[Fig6Row]) -> List[Claim]:
    """HYBRID completes on every formula, and takes at most each
    baseline's time (plus timing noise) on at least half of them."""
    n = len(rows)
    return [
        counted(
            "FIG6",
            "HYBRID completes every formula",
            sum(1 for r in rows if not r.hybrid.timed_out),
            n,
            n,
        ),
        counted(
            "FIG6",
            "HYBRID takes at most SVC(split)'s time + %.2f s on at least "
            "half the formulas" % TIME_MARGIN,
            sum(1 for r in rows if r.hybrid.within(r.svc)),
            n,
            (n + 1) // 2,
        ),
        counted(
            "FIG6",
            "HYBRID takes at most CVC(lazy)'s time + %.2f s on at least "
            "half the formulas" % TIME_MARGIN,
            sum(1 for r in rows if r.hybrid.within(r.cvc)),
            n,
            (n + 1) // 2,
        ),
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    rows = run_fig6(timeout=timeout)
    found = claims(rows)
    return with_claims(render_fig6(rows, timeout), found), found
