"""Figure 2 — effect of the encoding on SAT-solver behaviour.

The paper's Figure 2 is a table over five of the larger sample benchmarks
reporting, for SD vs EIJ: the number of CNF clauses, the number of
*conflict clauses* the SAT solver adds, and the SAT time.  The headline
observation: EIJ produces **more** CNF clauses (transitivity constraints)
but **far fewer** conflict clauses and lower SAT time, because case
splitting on per-predicate variables prunes the search better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..benchgen.suite import sample16
from .report import Claim, counted, format_seconds, table, with_claims
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = ["Fig2Row", "run_fig2", "render_fig2", "claims"]


@dataclass
class Fig2Row:
    benchmark: str
    sd: RunRow
    eij: RunRow


def run_fig2(
    count: int = 5, timeout: float = DEFAULT_TIMEOUT
) -> List[Fig2Row]:
    """Run SD and EIJ on the ``count`` largest sample benchmarks that
    both methods can decide (the paper's table rows have no timeouts)."""
    rows: List[Fig2Row] = []
    for bench in sorted(sample16(), key=lambda b: -b.dag_size):
        sd = run_benchmark(bench, "SD", timeout)
        eij = run_benchmark(bench, "EIJ", timeout)
        if sd.timed_out or eij.timed_out:
            continue
        rows.append(Fig2Row(benchmark=bench.name, sd=sd, eij=eij))
        if len(rows) >= count:
            break
    return rows


def render_fig2(rows: List[Fig2Row]) -> str:
    headers = [
        "Benchmark",
        "CNF clauses SD",
        "CNF clauses EIJ",
        "Conflict cl. SD",
        "Conflict cl. EIJ",
        "SAT time SD",
        "SAT time EIJ",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.benchmark,
                row.sd.cnf_clauses,
                row.eij.cnf_clauses,
                row.sd.conflict_clauses,
                row.eij.conflict_clauses,
                format_seconds(row.sd.sat_seconds, row.sd.timed_out),
                format_seconds(row.eij.sat_seconds, row.eij.timed_out),
            ]
        )
    out = ["FIG2: Effect of encoding on SAT-solver performance"]
    out.append(table(headers, body))
    return "\n".join(out)


def claims(rows: List[Fig2Row]) -> List[Claim]:
    """The paper's table: EIJ needs far fewer conflict clauses than SD
    (checked as at most as many, on at least half the rows both decide)."""
    decided = [r for r in rows if not (r.sd.timed_out or r.eij.timed_out)]
    fewer = sum(
        1 for r in decided if r.eij.conflict_clauses <= r.sd.conflict_clauses
    )
    return [
        counted(
            "FIG2",
            "EIJ needs at most SD's conflict clauses on at least half "
            "the rows both decide",
            fewer,
            len(decided),
            (len(decided) + 1) // 2,
        )
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    rows = run_fig2(timeout=timeout)
    found = claims(rows)
    return with_claims(render_fig2(rows), found), found
