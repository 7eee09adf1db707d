"""Figure 4 — HYBRID vs SD and EIJ on the 39 non-invariant benchmarks.

Scatter with HYBRID's total time on the x-axis and the competitor's on the
y-axis: points above the diagonal are HYBRID wins.  The paper's findings:
HYBRID (default SEP_THOLD: 700 on the paper's suite, ``DEFAULT_SEP_THOLD``
here) completes on everything, SD and EIJ each time out on some
benchmarks, and HYBRID is 4–8× faster on several.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..benchgen.suite import non_invariant_suite
from .report import (
    Claim,
    ascii_scatter,
    counted,
    format_seconds,
    table,
    with_claims,
)
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = ["Fig4Row", "run_fig4", "render_fig4", "best_speedup", "claims"]


@dataclass
class Fig4Row:
    benchmark: str
    hybrid: RunRow
    sd: RunRow
    eij: RunRow


def run_fig4(timeout: float = DEFAULT_TIMEOUT) -> List[Fig4Row]:
    rows = []
    for bench in non_invariant_suite():
        rows.append(
            Fig4Row(
                benchmark=bench.name,
                hybrid=run_benchmark(bench, "HYBRID", timeout),
                sd=run_benchmark(bench, "SD", timeout),
                eij=run_benchmark(bench, "EIJ", timeout),
            )
        )
    return rows


def best_speedup(pairs: List[Tuple[RunRow, RunRow]]) -> str:
    """HYBRID's largest speedup over the other procedure of the
    (hybrid, other) pairs, on the rows both decide."""
    ratios = [
        other.total_seconds / max(hybrid.total_seconds, 1e-9)
        for hybrid, other in pairs
        if not (hybrid.timed_out or other.timed_out)
    ]
    name = pairs[0][1].procedure if pairs else "?"
    return "best HYBRID speedup over %s: %.1fx" % (
        name,
        max(ratios, default=0.0),
    )


def render_fig4(rows: List[Fig4Row], timeout: float = DEFAULT_TIMEOUT) -> str:
    headers = ["Benchmark", "HYBRID", "SD", "EIJ"]
    body = []
    sd_pts: List[Tuple[float, float]] = []
    eij_pts: List[Tuple[float, float]] = []
    for row in rows:
        body.append(
            [
                row.benchmark,
                format_seconds(row.hybrid.total_seconds, row.hybrid.timed_out),
                format_seconds(row.sd.total_seconds, row.sd.timed_out),
                format_seconds(row.eij.total_seconds, row.eij.timed_out),
            ]
        )
        hx = timeout if row.hybrid.timed_out else row.hybrid.total_seconds
        sd_pts.append(
            (hx, timeout if row.sd.timed_out else row.sd.total_seconds)
        )
        eij_pts.append(
            (hx, timeout if row.eij.timed_out else row.eij.total_seconds)
        )
    out = [
        "FIG4: HYBRID vs SD and EIJ (total time, non-invariant benchmarks)"
    ]
    out.append(table(headers, body))
    out.append("")
    out.append(
        ascii_scatter(
            {"EIJ": eij_pts, "SD": sd_pts},
            xlabel="HYBRID time (s)",
            ylabel="SD/EIJ time (s)",
        )
    )
    out.append(best_speedup([(r.hybrid, r.sd) for r in rows]))
    out.append(best_speedup([(r.hybrid, r.eij) for r in rows]))
    return "\n".join(out)


def claims(rows: List[Fig4Row]) -> List[Claim]:
    """HYBRID completes on every formula; SD and EIJ each time out on
    some."""
    sd_failed = sum(1 for r in rows if r.sd.timed_out)
    eij_failed = sum(1 for r in rows if r.eij.timed_out)
    return [
        counted(
            "FIG4",
            "HYBRID completes every formula",
            sum(1 for r in rows if not r.hybrid.timed_out),
            len(rows),
            len(rows),
        ),
        Claim(
            "FIG4",
            "SD and EIJ each time out on some formula",
            "SD %d/%d, EIJ %d/%d"
            % (sd_failed, len(rows), eij_failed, len(rows)),
            ">= 1 each",
            sd_failed >= 1 and eij_failed >= 1,
        ),
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    rows = run_fig4(timeout=timeout)
    found = claims(rows)
    return with_claims(render_fig4(rows, timeout), found), found
