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
from ..encodings.hybrid import DEFAULT_SEP_THOLD, DEFAULT_TRANS_BUDGET
from ..logic.terms import Formula

__all__ = ["SolveRequest", "SolveOutcome"]


@dataclass
class SolveRequest:
    """One validity query plus the settings its solve runs under.

    Engines ignore fields they have no use for (the brute-force oracle
    has no ``sep_thold``); engine-specific extras travel in ``options``
    (HYBRID's ``paper_rule``, the eager engines' SAT conflict budget
    ``max_conflicts``, the lazy engine's ``max_iterations`` and
    ``incremental``, SVC's ``max_splits``, brute's enumeration
    ``limit``, cube's ``cube_depth``/``cube_procs``/``cube_share``, the
    cached engine's ``engine``/``cache_dir``).

    This class is the only list of a request's fields: the portfolio's
    process payload and the cache's rebase onto the canonical formula
    are derived from it with :mod:`dataclasses`.  A new field needs no
    other edit unless it scopes a verdict, in which case
    :func:`repro.service.cache.config_fingerprint` must include it.
    """

    formula: Formula
    want_countermodel: bool = True
    time_limit: Optional[float] = None
    sep_thold: int = DEFAULT_SEP_THOLD
    trans_budget: int = DEFAULT_TRANS_BUDGET
    sd_ranges: str = "uniform"
    #: Run the SatELite-style CNF simplifier between CNF generation and
    #: the SAT search (eager engines only; ``repro check --no-preprocess``
    #: is the escape hatch).
    preprocess: bool = True
    options: Dict[str, Any] = field(default_factory=dict)
