"""Plain-text rendering of the experiment outputs, and their claims.

The paper's figures are log-log scatter plots; a terminal reproduction
prints the underlying series plus an ASCII scatter so that "points above
the diagonal" remains readable without a plotting stack.  Under each
figure go the paper's claims about it, each checked on the figure's rows
(:class:`Claim`); ``repro experiment`` exits 1 when one fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Claim",
    "counted",
    "with_claims",
    "table",
    "ascii_scatter",
    "format_seconds",
]


@dataclass(frozen=True)
class Claim:
    """One claim of the paper, checked on an experiment's rows."""

    artifact: str
    statement: str
    measured: str
    bound: str
    holds: bool

    def __str__(self) -> str:
        return "%s claim: %s: %s (bound %s) %s" % (
            self.artifact,
            self.statement,
            self.measured,
            self.bound,
            "holds" if self.holds else "FAILS",
        )


def counted(
    artifact: str, statement: str, count: int, total: int, least: int
) -> Claim:
    """The claim that ``count`` of ``total`` rows is at least ``least``.

    A claim checked on no rows does not hold.
    """
    return Claim(
        artifact,
        statement,
        "%d/%d" % (count, total),
        ">= %d" % least,
        total > 0 and count >= least,
    )


def with_claims(text: str, claims: Sequence[Claim]) -> str:
    """``text`` followed by one line per claim."""
    return "\n".join([text] + [str(claim) for claim in claims])


def format_seconds(value: Optional[float], timed_out: bool = False) -> str:
    if timed_out:
        return "timeout"
    if value is None:
        return "-"
    if value < 0.01:
        return "%.4f" % value
    return "%.2f" % value


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def is_num(text: str) -> bool:
        try:
            float(text)
            return True
        except ValueError:
            return False

    def fmt_row(row):
        out = []
        for i, cell in enumerate(row):
            if is_num(cell):
                out.append(cell.rjust(widths[i]))
            else:
                out.append(cell.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [fmt_row(headers)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


def ascii_scatter(
    points: Dict[str, List[Tuple[float, float]]],
    width: int = 60,
    height: int = 20,
    log: bool = True,
    diagonal: bool = True,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """Log-log ASCII scatter of named point series.

    Each series gets a marker character; overlapping cells show the later
    series' marker.  With ``diagonal=True`` the ``y = x`` line is drawn in
    ``.`` so above/below-diagonal comparisons (the paper's reading of
    Figures 4–6) stay visible.
    """
    markers = "x+o*#@%"
    all_points = [p for series in points.values() for p in series]
    if not all_points:
        return "(no points)"

    def txf(value: float) -> float:
        if not log:
            return value
        return math.log10(max(value, 1e-6))

    xs = [txf(x) for x, _ in all_points]
    ys = [txf(y) for _, y in all_points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if diagonal:
        xmin = ymin = min(xmin, ymin)
        xmax = ymax = max(xmax, ymax)
    xspan = max(xmax - xmin, 1e-9)
    yspan = max(ymax - ymin, 1e-9)

    grid = [[" "] * width for _ in range(height)]

    def plot(xv: float, yv: float, ch: str) -> None:
        col = int((txf(xv) - xmin) / xspan * (width - 1))
        row = int((txf(yv) - ymin) / yspan * (height - 1))
        grid[height - 1 - row][col] = ch

    if diagonal:
        for col in range(width):
            xval = xmin + col / max(width - 1, 1) * xspan
            row = int((xval - ymin) / yspan * (height - 1))
            if 0 <= row < height:
                grid[height - 1 - row][col] = "."

    legend = []
    for i, (name, series) in enumerate(points.items()):
        ch = markers[i % len(markers)]
        legend.append("%s = %s" % (ch, name))
        for xv, yv in series:
            plot(xv, yv, ch)

    lines = ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append("x: %s, y: %s%s" % (xlabel, ylabel, "  (log-log)" if log else ""))
    lines.append("legend: " + ", ".join(legend))
    return "\n".join(lines)
