"""Experiment harness reproducing every table and figure of the paper.

Each module maps to one artifact (see DESIGN.md's experiment index):

* ``fig2`` — encoding effect on SAT behaviour (Figure 2 table);
* ``fig3`` — separation-predicate count vs normalized time (Figure 3);
* ``fig4`` — HYBRID vs SD/EIJ, non-invariant benchmarks (Figure 4);
* ``fig5`` — invariant-checking benchmarks, lowered SEP_THOLD (Figure 5);
* ``fig6`` — HYBRID vs SVC-style/CVC-style baselines (Figure 6);
* ``threshold_exp`` — automatic SEP_THOLD selection (§4.1);
* ``ablation`` — threshold sweep and static-hybrid comparison (ours).
"""

from . import ablation, fig2, fig3, fig4, fig5, fig6, threshold_exp
from .runner import (
    DEFAULT_TIMEOUT,
    PROCEDURES,
    RunRow,
    run_benchmark,
    run_suite,
)

__all__ = [
    "ablation",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "threshold_exp",
    "DEFAULT_TIMEOUT",
    "PROCEDURES",
    "RunRow",
    "run_benchmark",
    "run_suite",
]
