"""§4.1 — automatic SEP_THOLD selection on the 16-benchmark sample.

Runs EIJ on the sample, normalizes the run-times by formula size, and
applies the paper's one-dimensional variance-minimising split.  On the
authors' sample the boundary benchmark had 676 separation predicates and
the default threshold came out as 700.
"""

from __future__ import annotations

from typing import List, Tuple

from ..benchgen.suite import sample16
from ..encodings.hybrid import DEFAULT_SEP_THOLD
from ..encodings.threshold import ThresholdSelection, select_threshold
from .report import Claim, format_seconds, table, with_claims
from .runner import DEFAULT_TIMEOUT, run_benchmark

__all__ = ["run_threshold_selection", "render_threshold", "claims"]


def run_threshold_selection(
    timeout: float = DEFAULT_TIMEOUT,
) -> Tuple[ThresholdSelection, List]:
    samples: List[Tuple[int, float]] = []
    rows = []
    for bench in sample16():
        eij = run_benchmark(bench, "EIJ", timeout)
        sep = eij.sep_predicates
        if not sep:
            sd = run_benchmark(bench, "SD", timeout)
            sep = sd.sep_predicates
        norm = eij.normalized_seconds
        if eij.timed_out:
            # Timed-out runs land on the paper's uniform "timeout"
            # gridline: one fixed sentinel, independent of formula size,
            # so the slow cluster is tight and separates cleanly.
            norm = timeout * 50.0
        samples.append((sep, norm))
        rows.append((bench.name, sep, norm, eij.status))
    return select_threshold(samples), rows


def render_threshold(selection: ThresholdSelection, rows) -> str:
    headers = ["Benchmark", "Sep. preds", "EIJ norm (s/Knode)", "Status"]
    body = [
        [name, sep, format_seconds(norm), status]
        for name, sep, norm, status in sorted(rows, key=lambda r: r[2])
    ]
    out = ["THOLD: automatic SEP_THOLD selection (paper section 4.1)"]
    out.append(table(headers, body))
    out.append(
        "two-cluster split at k=%d; boundary benchmark has n_k=%d "
        "separation predicates; selected SEP_THOLD=%d "
        "(paper: n_k=676 -> SEP_THOLD=700)"
        % (
            selection.split_index,
            selection.boundary_sep_count,
            selection.threshold,
        )
    )
    return "\n".join(out)


def claims(selection: ThresholdSelection) -> List[Claim]:
    """The selection picks the SEP_THOLD every solve uses."""
    return [
        Claim(
            "THOLD",
            "the selection picks DEFAULT_SEP_THOLD",
            "%d" % selection.threshold,
            "== %d" % DEFAULT_SEP_THOLD,
            selection.threshold == DEFAULT_SEP_THOLD,
        )
    ]


def main(timeout: float = DEFAULT_TIMEOUT) -> Tuple[str, List[Claim]]:
    selection, rows = run_threshold_selection(timeout)
    found = claims(selection)
    return with_claims(render_threshold(selection, rows), found), found
