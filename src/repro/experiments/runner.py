"""Shared experiment runner: one benchmark × one procedure → one row.

Resource limits stand in for the paper's 30-minute timeout on a 2 GHz
Pentium-IV running compiled ML + zChaff.  Our stack is pure Python, and the
synthetic formulas are scaled accordingly, so the default per-run budget is
seconds, not minutes; a row whose status is ``TIMEOUT`` plays the role of
the paper's timed-out points (plotted on the "timeout" gridline in the
scatter figures).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

from ..benchgen.base import Benchmark
from ..core.status import Status
from ..engine import registry
from ..engine.contract import SolveOutcome, SolveRequest

__all__ = [
    "RunRow",
    "run_benchmark",
    "PROCEDURES",
    "DEFAULT_TIMEOUT",
    "TIME_MARGIN",
]

#: Default wall-clock budget per (benchmark, procedure) run, seconds.
DEFAULT_TIMEOUT = 20.0

#: Timing noise forgiven when a claim says one run is no slower than
#: another, seconds.
TIME_MARGIN = 0.05


@dataclass
class RunRow:
    """One measurement: a benchmark decided by one procedure."""

    benchmark: str
    domain: str
    procedure: str
    status: str
    total_seconds: float
    encode_seconds: float = 0.0
    sat_seconds: float = 0.0
    cnf_clauses: int = 0
    conflict_clauses: int = 0
    sep_predicates: int = 0
    dag_size: int = 0
    refinements: int = 0
    detail: str = ""

    @property
    def timed_out(self) -> bool:
        return self.status in ("UNKNOWN", "TIMEOUT", "TRANSLATION_LIMIT")

    @property
    def normalized_seconds(self) -> float:
        """Seconds per thousand DAG nodes (Figure 3's y-axis)."""
        return self.total_seconds / max(self.dag_size / 1000.0, 1e-9)

    def within(self, other: "RunRow") -> bool:
        """Decided, and at most :data:`TIME_MARGIN` slower than
        ``other``; a run that failed is slower than any decided one."""
        return not self.timed_out and (
            other.timed_out
            or self.total_seconds <= other.total_seconds + TIME_MARGIN
        )


def _run_engine(
    bench: Benchmark, engine: str, timeout: float, **kw
) -> SolveOutcome:
    """Resolve ``engine`` through the registry and decide the benchmark.

    ``kw`` are :class:`SolveRequest` fields, the experiment knobs:
    ``sep_thold`` / ``trans_budget`` for the eager encodings,
    engine-specific limits via ``options``.  Unset ones take the
    request's defaults.
    """
    return registry.get(engine).solve(
        SolveRequest(
            formula=bench.formula,
            time_limit=timeout,
            want_countermodel=False,
            **kw,
        )
    )


def _procedure(engine: str, **default_options) -> Callable:
    def run(bench: Benchmark, timeout: float, **kw) -> SolveOutcome:
        options = dict(default_options)
        for key in list(default_options):
            if key in kw:
                options[key] = kw[key]
        kw = {k: v for k, v in kw.items() if k not in options}
        return _run_engine(bench, engine, timeout, options=options, **kw)

    return run


#: Display name → runner.  Every procedure dispatches through
#: :mod:`repro.engine.registry`; the keys are the paper's labels.
#: HYBRID runs the paper's SepCnt rule alone, as Figs. 3–5, THOLD and
#: the ablations reproduce the paper's HYBRID.  HYBRID+LAZY is this
#: repository's extension, the product rule ``repro check`` runs (LAZY
#: classes checked inside the ``sat`` stage's search); no claim rests on
#: it.  A
#: keyword named by a procedure's options overrides it per run: ABL3
#: runs CVC(lazy) with ``incremental=False``.
PROCEDURES: Dict[str, Callable] = {
    "SD": _procedure("sd"),
    "EIJ": _procedure("eij"),
    "HYBRID": _procedure("hybrid", paper_rule=True),
    "HYBRID+LAZY": _procedure("hybrid"),
    "STATIC": _procedure("static"),
    "CVC(lazy)": _procedure("lazy", incremental=True),
    "SVC(split)": _procedure("svc", max_splits=2_000_000),
    "PORTFOLIO": _procedure("portfolio"),
}


def run_benchmark(
    bench: Benchmark,
    procedure: str,
    timeout: float = DEFAULT_TIMEOUT,
    **kw,
) -> RunRow:
    """Run one procedure on one benchmark; never raises on resource limits."""
    runner = PROCEDURES[procedure]
    start = time.perf_counter()
    result = runner(bench, timeout, **kw)
    elapsed = time.perf_counter() - start

    status = result.status
    if status in (Status.VALID, Status.INVALID):
        if result.valid != bench.expected_valid:
            raise AssertionError(
                "%s decided %s as %s but the generator expects valid=%s"
                % (procedure, bench.name, status, bench.expected_valid)
            )
    else:
        status = "TIMEOUT" if status == Status.UNKNOWN else status

    stats = result.stats
    return RunRow(
        benchmark=bench.name,
        domain=bench.domain,
        procedure=procedure,
        status=status,
        total_seconds=elapsed,
        encode_seconds=stats.encode_seconds,
        sat_seconds=stats.sat_seconds,
        cnf_clauses=stats.counter("cnf", "clauses"),
        conflict_clauses=stats.conflict_clauses,
        sep_predicates=stats.sep_predicates,
        dag_size=bench.dag_size,
        refinements=stats.counter("sat", "iterations"),
        detail=result.detail,
    )
