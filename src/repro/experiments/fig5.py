"""Figure 5 — invariant-checking benchmarks: SD wins.

The invariant-checking formulas have few p-function applications, many
inequalities, and a small number of *large* classes, so even classes whose
SepCnt is below the threshold drag in many constants and the transitivity
constraints explode.  The paper: EIJ and default-threshold HYBRID fail on
all of them; with SEP_THOLD = 100 HYBRID completes on some but is still
outperformed by SD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..benchgen.suite import invariant_suite
from .report import ascii_scatter, format_seconds, table
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = ["Fig5Row", "run_fig5", "render_fig5"]

#: The paper lowers SEP_THOLD from its default (700 on their suite) to 100
#: for this figure.  Our default is 100 (``DEFAULT_SEP_THOLD``, re-derived
#: on our suite), so the proportionally lowered value is 30.
FIG5_SEP_THOLD = 30


@dataclass
class Fig5Row:
    benchmark: str
    hybrid: RunRow  # at the lowered FIG5_SEP_THOLD
    hybrid_default: RunRow  # at the default threshold
    sd: RunRow
    eij: RunRow


def run_fig5(timeout: float = DEFAULT_TIMEOUT) -> List[Fig5Row]:
    rows = []
    for bench in invariant_suite():
        rows.append(
            Fig5Row(
                benchmark=bench.name,
                hybrid=run_benchmark(
                    bench, "HYBRID", timeout, sep_thold=FIG5_SEP_THOLD
                ),
                hybrid_default=run_benchmark(bench, "HYBRID", timeout),
                sd=run_benchmark(bench, "SD", timeout),
                eij=run_benchmark(bench, "EIJ", timeout),
            )
        )
    return rows


def render_fig5(rows: List[Fig5Row], timeout: float = DEFAULT_TIMEOUT) -> str:
    headers = [
        "Benchmark",
        "HYBRID(%d)" % FIG5_SEP_THOLD,
        "HYBRID(default)",
        "SD",
        "EIJ",
    ]
    body = []
    sd_pts: List[Tuple[float, float]] = []
    eij_pts: List[Tuple[float, float]] = []
    for row in rows:
        body.append(
            [
                row.benchmark,
                format_seconds(row.hybrid.total_seconds, row.hybrid.timed_out),
                format_seconds(
                    row.hybrid_default.total_seconds,
                    row.hybrid_default.timed_out,
                ),
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
        "FIG5: invariant-checking benchmarks (HYBRID at SEP_THOLD=%d; "
        "paper used 100 against its default of 700)" % FIG5_SEP_THOLD
    ]
    out.append(table(headers, body))
    out.append("")
    out.append(
        ascii_scatter(
            {"SD": sd_pts, "EIJ": eij_pts},
            xlabel="HYBRID(%d) time (s)" % FIG5_SEP_THOLD,
            ylabel="SD/EIJ time (s)",
        )
    )
    sd_wins = sum(
        1
        for r in rows
        if not r.sd.timed_out
        and (r.hybrid.timed_out or r.sd.total_seconds <= r.hybrid.total_seconds)
    )
    eij_fail = sum(1 for r in rows if r.eij.timed_out)
    default_fail = sum(1 for r in rows if r.hybrid_default.timed_out)
    out.append(
        "SD at-least-as-fast as HYBRID(%d) on %d/%d; EIJ failed on %d/%d; "
        "HYBRID(default) failed on %d/%d "
        "(paper: SD wins on all, EIJ and HYBRID-default fail on all)."
        % (FIG5_SEP_THOLD, sd_wins, len(rows), eij_fail, len(rows),
           default_fail, len(rows))
    )
    return "\n".join(out)


def main(timeout: float = DEFAULT_TIMEOUT) -> str:
    text = render_fig5(run_fig5(timeout=timeout), timeout=timeout)
    print(text)
    return text


if __name__ == "__main__":
    main()
