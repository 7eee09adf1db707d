#!/usr/bin/env python
"""Encoding comparison across the benchmark suite — the paper in miniature.

Runs SD, EIJ and HYBRID over a slice of the 49-benchmark suite and prints
a compact comparison: total time, CNF size, conflict clauses, and which
method each HYBRID class chose.  This is the quickest way to *see* the
paper's thesis: EIJ's few conflict clauses on predicate-light formulas,
its translation blow-up on invariant formulas, and HYBRID tracking the
better of the two.

Run:  python examples/encoding_comparison.py
"""

from repro.benchgen.suite import invariant_suite, non_invariant_suite
from repro.core import Status, check_validity


def describe_hybrid_choice(result) -> str:
    """The class mix of the HYBRID encoding that ``check_validity`` timed
    (its ``encode`` stage record), LAZY classes included."""
    if result.status is Status.TRANSLATION_LIMIT:
        return "translation blows up"
    lazy = result.stats.counter("encode", "lazy_classes")
    sd = result.stats.counter("encode", "sd_classes")
    eij = result.stats.counter("encode", "eij_classes") - lazy
    return "%d EIJ / %d LAZY / %d SD classes" % (eij, lazy, sd)


def main() -> None:
    picks = (
        non_invariant_suite()[::8] + invariant_suite()[1:4:2]
    )
    header = "%-26s %8s %8s %8s   %s" % (
        "benchmark",
        "SD",
        "EIJ",
        "HYBRID",
        "hybrid class mix",
    )
    print(header)
    print("-" * len(header))
    for bench in picks:
        times = {}
        for method in ("sd", "eij", "hybrid"):
            result = check_validity(
                bench.formula,
                method=method,
                time_limit=20.0,
                want_countermodel=False,
            )
            if result.valid is None:
                times[method] = "  blown"
            else:
                assert result.valid == bench.expected_valid
                times[method] = "%7.3f" % result.stats.total_seconds
        print(
            "%-26s %8s %8s %8s   %s"
            % (
                bench.name,
                times["sd"],
                times["eij"],
                times["hybrid"],
                describe_hybrid_choice(result),  # the last run: HYBRID
            )
        )


if __name__ == "__main__":
    main()
