"""Figure 4 — HYBRID vs SD and EIJ on the 39 non-invariant benchmarks.

Scatter with HYBRID's total time on the x-axis and the competitor's on the
y-axis: points above the diagonal are HYBRID wins.  The paper's findings:
HYBRID (default SEP_THOLD: 700 on the paper's suite, ``DEFAULT_SEP_THOLD``
here) completes on everything, SD and EIJ each time out on some
benchmarks, and HYBRID is 4–8× faster on several.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..benchgen.suite import non_invariant_suite
from .report import ascii_scatter, format_seconds, table
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = ["Fig4Row", "run_fig4", "render_fig4", "summarize_vs_hybrid"]


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


def summarize_vs_hybrid(
    pairs: List[Tuple[RunRow, RunRow]], timeout: float
) -> str:
    """Summary lines for (hybrid, other) run pairs."""
    wins = losses = other_timeouts = hybrid_timeouts = 0
    max_speedup = 0.0
    for hybrid, other in pairs:
        if hybrid.timed_out:
            hybrid_timeouts += 1
            continue
        if other.timed_out:
            other_timeouts += 1
            wins += 1
            continue
        if other.total_seconds >= hybrid.total_seconds:
            wins += 1
            max_speedup = max(
                max_speedup,
                other.total_seconds / max(hybrid.total_seconds, 1e-9),
            )
        else:
            losses += 1
    name = pairs[0][1].procedure if pairs else "?"
    return (
        "vs %s: HYBRID faster-or-equal on %d, slower on %d; %s timeouts: "
        "%d, HYBRID timeouts: %d; best speedup %.1fx"
        % (name, wins, losses, name, other_timeouts, hybrid_timeouts, max_speedup)
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
    out.append(
        summarize_vs_hybrid([(r.hybrid, r.sd) for r in rows], timeout)
    )
    out.append(
        summarize_vs_hybrid([(r.hybrid, r.eij) for r in rows], timeout)
    )
    return "\n".join(out)


def main(timeout: float = DEFAULT_TIMEOUT) -> str:
    text = render_fig4(run_fig4(timeout=timeout), timeout=timeout)
    print(text)
    return text


if __name__ == "__main__":
    main()
