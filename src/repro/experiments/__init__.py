"""Experiment harness reproducing every table and figure of the paper.

Each module maps to one artifact (see DESIGN.md's experiment index):

* ``fig2`` — encoding effect on SAT behaviour (Figure 2 table);
* ``fig3`` — separation-predicate count vs normalized time (Figure 3);
* ``fig4`` — HYBRID vs SD/EIJ, non-invariant benchmarks (Figure 4);
* ``fig5`` — invariant-checking benchmarks, lowered SEP_THOLD (Figure 5);
* ``fig6`` — HYBRID vs SVC-style/CVC-style baselines (Figure 6);
* ``threshold_exp`` — automatic SEP_THOLD selection (§4.1);
* ``ablation`` — threshold sweep, static hybrid, lazy refinement modes
  and SD range allocation (ours).

Each module's ``main(timeout)`` runs its rows and returns its output
text and the paper's claims checked on those rows
(:class:`~repro.experiments.report.Claim`).
"""

from typing import Callable, Dict, List, Tuple

from . import ablation, fig2, fig3, fig4, fig5, fig6, threshold_exp
from .report import Claim
from .runner import (
    DEFAULT_TIMEOUT,
    PROCEDURES,
    RunRow,
    run_benchmark,
)

#: ``repro experiment NAME`` -> that experiment's ``main``.
EXPERIMENTS: Dict[str, Callable[[float], Tuple[str, List[Claim]]]] = {
    "fig2": fig2.main,
    "fig3": fig3.main,
    "fig4": fig4.main,
    "fig5": fig5.main,
    "fig6": fig6.main,
    "threshold": threshold_exp.main,
    "ablation": ablation.main,
}

__all__ = [
    "ablation",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "threshold_exp",
    "Claim",
    "DEFAULT_TIMEOUT",
    "EXPERIMENTS",
    "PROCEDURES",
    "RunRow",
    "run_benchmark",
]
