"""The shared request/outcome contract every engine speaks.

One :class:`SolveRequest` in, one :class:`SolveOutcome` out — regardless
of whether the engine is the eager pipeline, a baseline, the brute-force
oracle, or the parallel portfolio.  :class:`SolveOutcome` lives in
:mod:`repro.core.result`, next to the :class:`StageRecord` telemetry it
carries, so the solvers that build it need not import the engine layer.
It is the only result type: the status, the countermodel, the wall time
and the per-stage records, from which every time and size is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.result import SolveOutcome
from ..encodings.hybrid import DEFAULT_SEP_THOLD
from ..logic.terms import Formula

__all__ = ["SolveRequest", "SolveOutcome"]


@dataclass
class SolveRequest:
    """One validity query plus every knob an engine may honour.

    Engines ignore knobs they have no use for (the brute-force oracle has
    no ``sep_thold``); engine-specific extras travel in ``options`` (the
    lazy engine's ``max_iterations``, SVC's ``max_splits``, brute's
    enumeration ``limit``, the portfolio's ``engines`` subset).
    """

    formula: Formula
    want_countermodel: bool = True
    time_limit: Optional[float] = None
    conflict_limit: Optional[int] = None
    sep_thold: int = DEFAULT_SEP_THOLD
    trans_budget: Optional[int] = None
    sd_ranges: str = "uniform"
    #: Run the SatELite-style CNF simplifier between CNF generation and
    #: the SAT search (eager engines only; ``repro check --no-preprocess``
    #: is the escape hatch).
    preprocess: bool = True
    options: Dict[str, Any] = field(default_factory=dict)

    def replace_formula(self, formula: Formula) -> "SolveRequest":
        return SolveRequest(
            formula=formula,
            want_countermodel=self.want_countermodel,
            time_limit=self.time_limit,
            conflict_limit=self.conflict_limit,
            sep_thold=self.sep_thold,
            trans_budget=self.trans_budget,
            sd_ranges=self.sd_ranges,
            preprocess=self.preprocess,
            options=dict(self.options),
        )
