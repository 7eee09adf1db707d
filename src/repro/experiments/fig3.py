"""Figure 3 — the number of separation predicates predicts EIJ's cost.

The paper plots, for the 16-benchmark sample, the normalized total time
(seconds per thousand DAG nodes) of SD and EIJ against the number of
separation predicates, both axes logarithmic.  The reading: EIJ is fast
while the predicate count is low, degrades as it grows, and beyond a
threshold fails in the translation stage; SD stays comparatively flat.
This correlation is what justifies using SepCnt as HYBRID's decision
feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from ..benchgen.suite import sample16
from .report import (
    Claim,
    ascii_scatter,
    counted,
    format_seconds,
    table,
    with_claims,
)
from .runner import DEFAULT_TIMEOUT, RunRow, run_benchmark

__all__ = [
    "Fig3Point",
    "run_fig3",
    "render_fig3",
    "rank_correlation",
    "claims",
]

#: The Spearman correlation between SepCnt and EIJ's normalized time
#: must exceed this for the paper's "good correlation".
MIN_RHO = 0.3


@dataclass
class Fig3Point:
    benchmark: str
    sep_predicates: int
    sd: RunRow
    eij: RunRow


def run_fig3(timeout: float = DEFAULT_TIMEOUT) -> List[Fig3Point]:
    points = []
    for bench in sample16():
        sd = run_benchmark(bench, "SD", timeout)
        eij = run_benchmark(bench, "EIJ", timeout)
        # SepCnt comes from whichever run produced an encoding; the EIJ
        # run may die in translation, so prefer SD's measurement.
        sep = sd.sep_predicates or eij.sep_predicates
        points.append(
            Fig3Point(
                benchmark=bench.name,
                sep_predicates=sep,
                sd=sd,
                eij=eij,
            )
        )
    return points


def rank_correlation(pairs: List[Tuple[float, float]]) -> float:
    """Spearman rank correlation (no scipy dependency needed)."""
    n = len(pairs)
    if n < 2:
        return 0.0

    def ranks(values):
        order = sorted(range(n), key=lambda i: values[i])
        out = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            rank = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = rank
            i = j + 1
        return out

    xs = ranks([p[0] for p in pairs])
    ys = ranks([p[1] for p in pairs])
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.sqrt(sum((a - mx) ** 2 for a in xs))
    vy = math.sqrt(sum((b - my) ** 2 for b in ys))
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)


def _eij_norm(point: Fig3Point, timeout: float) -> float:
    """EIJ's normalized time; a failed run sits on the plot's top
    gridline, like the paper's timed-out points."""
    if point.eij.timed_out:
        return timeout * 50.0
    return point.eij.normalized_seconds


def render_fig3(points: List[Fig3Point], timeout: float = DEFAULT_TIMEOUT) -> str:
    headers = [
        "Benchmark",
        "Sep. preds",
        "SD norm (s/Knode)",
        "EIJ norm (s/Knode)",
        "EIJ status",
    ]
    body = []
    sd_series: List[Tuple[float, float]] = []
    eij_series: List[Tuple[float, float]] = []
    for point in sorted(points, key=lambda p: p.sep_predicates):
        x = max(point.sep_predicates, 1)
        sd_norm = point.sd.normalized_seconds
        eij_norm = _eij_norm(point, timeout)
        sd_series.append((x, max(sd_norm, 1e-4)))
        eij_series.append((x, max(eij_norm, 1e-4)))
        body.append(
            [
                point.benchmark,
                point.sep_predicates,
                format_seconds(sd_norm, point.sd.timed_out),
                format_seconds(eij_norm, point.eij.timed_out),
                point.eij.status,
            ]
        )
    out = [
        "FIG3: Normalized total time vs number of separation predicates "
        "(16-benchmark sample)"
    ]
    out.append(table(headers, body))
    out.append("")
    out.append(
        ascii_scatter(
            {"SD": sd_series, "EIJ": eij_series},
            diagonal=False,
            xlabel="separation predicates",
            ylabel="normalized time (s/Knode)",
        )
    )
    return "\n".join(out)


def claims(
    points: List[Fig3Point], timeout: float = DEFAULT_TIMEOUT
) -> List[Claim]:
    """EIJ's cost tracks SepCnt, and past some count EIJ fails."""
    rho = rank_correlation(
        [(max(p.sep_predicates, 1), _eij_norm(p, timeout)) for p in points]
    )
    return [
        Claim(
            "FIG3",
            "Spearman rho(SepCnt, EIJ normalized time)",
            "%.2f" % rho,
            "> %.1f" % MIN_RHO,
            rho > MIN_RHO,
        ),
        counted(
            "FIG3",
            "EIJ fails on some sample formula",
            sum(1 for p in points if p.eij.timed_out),
            len(points),
            1,
        ),
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    points = run_fig3(timeout=timeout)
    found = claims(points, timeout)
    return with_claims(render_fig3(points, timeout), found), found
