#!/usr/bin/env python
"""Ordered-queue invariant checking — where the small-domain method wins.

The invariant-checking formulas (out-of-order processors, ordered queues)
have many inequalities, large symbolic-constant classes and essentially no
p-function applications.  This example builds the sortedness-invariant
obligation at increasing queue sizes and shows the paper's Figure-5 effect
directly: the per-constraint encoding's transitivity constraints explode
while SD stays flat, and HYBRID's class statistics explain the choice.
The product HYBRID (the default ``check_validity``) sends the large class
with inequalities to LAZY instead: EIJ atoms, no transitivity, and the
SAT search learns only the negative cycles its assignments close.

Run:  python examples/queue_invariant.py
"""

from repro import check_validity
from repro.benchgen.invariant import make_invariant
from repro.separation.analysis import analyze_separation
from repro.transform.func_elim import eliminate_applications


def main() -> None:
    print(
        "%-6s %-7s %-8s %-9s %-12s %-12s %-12s"
        % (
            "cells",
            "nodes",
            "classes",
            "SepCnt",
            "SD time",
            "EIJ time",
            "HYBRID time",
        )
    )
    for cells in (6, 8, 10, 12):
        bench = make_invariant(cells=cells, seed=1)

        # Inspect the analysis the hybrid method performs (§4 steps 1-4).
        f_sep, _ = eliminate_applications(bench.formula)
        analysis = analyze_separation(f_sep)
        sep_cnt = analysis.total_sep_count()
        biggest = max(len(c.vars) for c in analysis.classes)

        sd = check_validity(bench.formula, method="sd")
        eij = check_validity(bench.formula, method="eij")
        hybrid = check_validity(bench.formula)
        assert sd.valid
        assert hybrid.valid
        assert hybrid.stats.counter("encode", "lazy_classes") >= 1
        eij_time = (
            "%.3fs" % eij.stats.total_seconds
            if eij.valid is not None
            else "blew up"
        )
        print(
            "%-6d %-7d %-8d %-9d %-12s %-12s %-12s"
            % (
                cells,
                bench.dag_size,
                len(analysis.classes),
                sep_cnt,
                "%.3fs" % sd.stats.total_seconds,
                eij_time,
                "%.3fs" % hybrid.stats.total_seconds,
            )
        )
        print(
            "        largest class: %d constants, p-fraction: %.0f%%"
            % (
                biggest,
                100.0
                * len(analysis.p_vars)
                / max(len(analysis.p_vars) + len(analysis.g_vars), 1),
            )
        )

    # The failed invariant: the conclusion claims the chain overshoots
    # its guaranteed total gap; the all-tight trace refutes it.
    bad = make_invariant(cells=4, seed=1, valid=False)
    result = check_validity(bad.formula, method="sd")
    assert not result.valid
    model = result.counterexample
    cells_vals = sorted(
        (name, value)
        for name, value in model.vars.items()
        if name.startswith("a")
    )
    print("\ninvalid variant countermodel (a tight trace, no overshoot):")
    for name, value in cells_vals:
        print("   %s = %d" % (name, value))


if __name__ == "__main__":
    main()
