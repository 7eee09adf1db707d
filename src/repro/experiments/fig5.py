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
from .report import (
    Claim,
    ascii_scatter,
    counted,
    format_seconds,
    table,
    with_claims,
)
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = ["Fig5Row", "run_fig5", "render_fig5", "claims"]

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
    return "\n".join(out)


def claims(rows: List[Fig5Row]) -> List[Claim]:
    """SD completes every invariant formula; EIJ and HYBRID at the
    default threshold fail every one."""
    n = len(rows)
    return [
        counted(
            "FIG5",
            "SD completes every invariant formula",
            sum(1 for r in rows if not r.sd.timed_out),
            n,
            n,
        ),
        counted(
            "FIG5",
            "EIJ fails on every invariant formula",
            sum(1 for r in rows if r.eij.timed_out),
            n,
            n,
        ),
        counted(
            "FIG5",
            "HYBRID at the default SEP_THOLD fails on every invariant "
            "formula",
            sum(1 for r in rows if r.hybrid_default.timed_out),
            n,
            n,
        ),
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    rows = run_fig5(timeout=timeout)
    found = claims(rows)
    return with_claims(render_fig5(rows, timeout), found), found
