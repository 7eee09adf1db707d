"""Spans around the calls into each layer, recorded from outside ``src/``.

:func:`install` replaces each layer entry point *at the site it is
imported from* (for example ``repro.engine.stages.encode_hybrid``, which
is what the eager pipeline calls) with a wrapper that records a span:
name, start, end, parent span, query id, and counters read from the
value the call returns.  Spans stay in memory until the run ends.

Spans inside forked portfolio or cube members are lost with the member
process; their work shows only through the counters the outcome carries
(the race and cube ``StageRecord`` and ``winner``).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Counters = Dict[str, float]
CounterFn = Callable[[Any, tuple, dict], Counters]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    query: Any = None
    error: Optional[str] = None
    counters: Counters = field(default_factory=dict)
    #: Seconds the wrapper itself spent around this span (bookkeeping).
    cost: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
            "error": self.error,
            "counters": self.counters,
            "cost": self.cost,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        return cls(**data)


class Tracer:
    """Collects spans from every thread of one process.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it started.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_query(self, query: Any) -> None:
        """Attribute the spans this thread opens from now on to ``query``."""
        self._local.query = query

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counters: Optional[CounterFn] = None,
        skip_under: Optional[str] = None,
        query_of: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``skip_under`` names a span inside which the call is not recorded
        (``CdclSolver.solve`` delegates to ``solve_under_assumptions``;
        only direct calls count as assumption solves).  ``query_of``
        derives the query id from the call's arguments for calls that
        start a request (serve's request handlers).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = time.perf_counter()
            stack = tracer._stack()
            if skip_under is not None and stack and stack[-1].name == skip_under:
                return original(*args, **kwargs)
            if query_of is not None:
                tracer.set_query(query_of(args))
            span = Span(
                sid=next(tracer._ids),
                name=name,
                start=0.0,
                parent=stack[-1].sid if stack else None,
                query=getattr(tracer._local, "query", None),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                if counters is not None:
                    span.counters = counters(result, args, kwargs)
                return result
            finally:
                stack.pop()
                tracer.spans.append(span)
                span.cost = (span.start - entered) + (time.perf_counter() - span.end)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The entry points and the counters read from their return values
# ---------------------------------------------------------------------------


def _stages_counters(outcome: Any, args: tuple, kwargs: dict) -> Counters:
    for record in outcome.stats.stages:
        if record.name == "func-elim":
            return {
                "dag_suf": record.counters.get("dag_suf", 0),
                "dag_sep": record.counters.get("dag_sep", 0),
            }
    return {}


def _encoding_counters(encoding: Any, args: tuple, kwargs: dict) -> Counters:
    return {
        "classes": encoding.stats.num_classes,
        "eij_classes": encoding.stats.eij_classes,
    }


def _len_counter(key: str) -> CounterFn:
    return lambda result, args, kwargs: {key: len(result)}


def _preprocess_counters(result: Any, args: tuple, kwargs: dict) -> Counters:
    return {
        "before": result.stats.clauses_before,
        "after": result.stats.clauses_after,
        "closed": 1 if result.status == "UNSAT" else 0,
    }


def _sat_counters(result: Any, args: tuple, kwargs: dict) -> Counters:
    return {
        "conflicts": result.stats.conflicts,
        "propagations": result.stats.propagations,
    }


def _conquer_counters(result: Any, args: tuple, kwargs: dict) -> Counters:
    record = args[2]
    return {
        "cubes": record.counters.get("cubes", 0),
        "resplits": record.counters.get("resplits", 0),
        "imported": record.counters.get("imported", 0),
    }


def _smtlib_counters(script: Any, args: tuple, kwargs: dict) -> Counters:
    return {"bytes": len(args[0].encode("utf-8"))}


def _portfolio_counters(outcome: Any, args: tuple, kwargs: dict) -> Counters:
    own = 0.0
    cancelled = 0
    for record in outcome.stats.stages:
        if record.name == "race":
            cancelled = record.counters.get("cancelled", 0)
        elif outcome.winner is not None:
            own += record.seconds
    counters: Counters = {"winner_s": own, "cancelled": cancelled}
    if outcome.winner is not None:
        counters["win." + outcome.winner] = 1
    return counters


def _lookup_counters(result: Any, args: tuple, kwargs: dict) -> Counters:
    entry, _tier = result
    return {"lookup": 1, "hit": 1 if entry is not None else 0}


def _check_counters(result: Any, args: tuple, kwargs: dict) -> Counters:
    return {"incremental": 1 if result.backend == "incremental" else 0}


def _payload_id(index: int) -> Callable[[tuple], Any]:
    def query_of(args: tuple) -> Any:
        payload = args[index]
        return payload.get("id") if isinstance(payload, dict) else None

    return query_of


#: (module, attribute or Class.method, span name, counters, options)
ENTRY_POINTS: List[Tuple[str, str, str, Optional[CounterFn], Dict[str, Any]]] = [
    ("repro.engine.engines", "run_eager", "engine.stages", _stages_counters, {}),
    ("repro.engine.cube", "run_eager", "engine.stages", _stages_counters, {}),
    ("repro.engine.stages", "eliminate_applications", "transform.func_elim", None, {}),
    ("repro.engine.stages", "encode_hybrid", "encodings.hybrid", _encoding_counters, {}),
    ("repro.encodings.hybrid", "analyze_separation", "separation.analysis", None, {}),
    (
        "repro.encodings.hybrid",
        "generate_transitivity",
        "encodings.transitivity",
        _len_counter("clauses"),
        {},
    ),
    (
        "repro.encodings.hybrid",
        "generate_equality_transitivity",
        "encodings.transitivity",
        _len_counter("clauses"),
        {},
    ),
    ("repro.engine.stages", "to_cnf", "sat.tseitin", _len_counter("clauses"), {}),
    ("repro.engine.stages", "preprocess_cnf", "sat.preprocess", _preprocess_counters, {}),
    ("repro.sat.solver", "CdclSolver.solve", "sat.solver", _sat_counters, {}),
    (
        "repro.sat.solver",
        "CdclSolver.solve_under_assumptions",
        "sat.solver.assumptions",
        _sat_counters,
        {"skip_under": "sat.solver"},
    ),
    ("repro.engine.stages", "decode_countermodel", "core.decision", None, {}),
    ("repro.engine.stages", "lift_countermodel", "core.decision", None, {}),
    ("repro.engine.cube", "generate_cubes", "sat.cubes", None, {}),
    ("repro.engine.cube", "conquer", "engine.cube", _conquer_counters, {}),
    ("repro.logic.smtlib", "parse_smtlib", "logic.smtlib", _smtlib_counters, {}),
    ("repro.engine.portfolio", "solve_portfolio", "engine.portfolio", _portfolio_counters, {}),
    ("repro.service.server", "solve_portfolio", "engine.portfolio", _portfolio_counters, {}),
    ("repro.service.server", "parse_formula", "logic.parser", None, {}),
    ("repro.service.cache", "canonicalize", "logic.canonical", None, {}),
    ("repro.engine.session", "canonicalize", "logic.canonical", None, {}),
    ("repro.service.cache", "ResultCache.lookup", "service.cache", _lookup_counters, {}),
    ("repro.service.cache", "ResultCache.store", "service.cache", None, {}),
    ("repro.engine.session", "Session.assert_formula", "engine.session.assert", None, {}),
    ("repro.engine.session", "Session.push", "engine.session.assert", None, {}),
    ("repro.engine.session", "Session.pop", "engine.session.assert", None, {}),
    ("repro.engine.session", "Session.check_sat", "engine.session.check", _check_counters, {}),
    (
        "repro.service.server",
        "_solve_one",
        "service.server.request",
        None,
        {"query_of": _payload_id(1)},
    ),
    (
        "repro.service.server",
        "_session_op",
        "service.server.request",
        None,
        {"query_of": _payload_id(2)},
    ),
]


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in :data:`ENTRY_POINTS` for ``tracer``."""
    for module_name, attr, name, counters, options in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        tracer.wrap(owner, attr, name, counters=counters, **options)
    return tracer


# ---------------------------------------------------------------------------
# Aggregation: self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = span.seconds - covered
    return out


#: Default portfolio members, in registry priority order (the
#: ``engine.portfolio.win_frac.<member>`` metrics).
PORTFOLIO_MEMBERS = ("hybrid", "static", "eij", "sd", "lazy", "svc", "brute")

#: Serve error kinds reported one by one; the rest go to ``other``.
ERROR_KINDS = ("deadline", "overloaded", "internal")


@dataclass
class ClientLayer:
    """Per-layer figures only the client sees (serve responses)."""

    transport_s: List[float] = field(default_factory=list)
    session_checks: int = 0
    incremental_checks: int = 0


def per_layer_metrics(
    spans: List[Span], tally: Any, client: ClientLayer
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run, name -> (value, unit).

    Seconds and counts are per query of the run (totals divided by the
    queries), so runs with different numbers of passes compare; ratios
    and rates are taken over the whole run.
    """
    selfs = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sums: Dict[str, float] = defaultdict(float)
    budget_n = 0
    budget_s = 0.0
    race_overhead: List[float] = []
    for span in spans:
        self_s[span.name] += selfs[span.sid]
        total[span.name] += span.seconds
        calls[span.name] += 1
        for key, value in span.counters.items():
            sums[span.name + ":" + key] += value
        if span.name == "encodings.hybrid" and span.error == "TransitivityBudgetExceeded":
            budget_n += 1
            budget_s += span.seconds
        if span.name == "engine.portfolio":
            race_overhead.append(span.seconds - span.counters.get("winner_s", 0.0))

    q = float(max(1, tally.queries))
    races = max(1, calls["engine.portfolio"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (value, unit)

    put("transform.func_elim.self_s", self_s["transform.func_elim"] / q, "s/query")
    put(
        "transform.func_elim.dag_ratio",
        ratio(sums["engine.stages:dag_sep"], sums["engine.stages:dag_suf"]),
        "ratio",
    )
    put("separation.analysis.self_s", self_s["separation.analysis"] / q, "s/query")
    put("encodings.hybrid.self_s", self_s["encodings.hybrid"] / q, "s/query")
    put(
        "encodings.eij_class_frac",
        ratio(sums["encodings.hybrid:eij_classes"], sums["encodings.hybrid:classes"]),
        "ratio",
    )
    put("encodings.transitivity.self_s", self_s["encodings.transitivity"] / q, "s/query")
    put(
        "encodings.transitivity.clauses",
        sums["encodings.transitivity:clauses"] / q,
        "count/query",
    )
    put("encodings.budget_exceeded", budget_n / q, "count/query")
    put("encodings.budget_exceeded_s", budget_s / q, "s/query")
    put("sat.tseitin.self_s", self_s["sat.tseitin"] / q, "s/query")
    put("sat.tseitin.clauses", sums["sat.tseitin:clauses"] / q, "count/query")
    put("sat.preprocess.self_s", self_s["sat.preprocess"] / q, "s/query")
    put(
        "sat.preprocess.clause_reduction",
        1.0 - ratio(sums["sat.preprocess:after"], sums["sat.preprocess:before"])
        if sums["sat.preprocess:before"]
        else 0.0,
        "ratio",
    )
    put(
        "sat.preprocess.closed_frac",
        ratio(sums["sat.preprocess:closed"], calls["sat.preprocess"]),
        "ratio",
    )
    put("sat.solver.self_s", self_s["sat.solver"] / q, "s/query")
    put("sat.solver.conflicts", sums["sat.solver:conflicts"] / q, "count/query")
    put(
        "sat.solver.propagations_per_s",
        ratio(sums["sat.solver:propagations"], self_s["sat.solver"]),
        "1/s",
    )
    put("sat.solver.assumption_self_s", self_s["sat.solver.assumptions"] / q, "s/query")
    put("sat.solver.assumption_solves", calls["sat.solver.assumptions"] / q, "count/query")
    put("core.decision.self_s", self_s["core.decision"] / q, "s/query")
    put("engine.stages.self_s", self_s["engine.stages"] / q, "s/query")
    put("sat.cubes.self_s", self_s["sat.cubes"] / q, "s/query")
    put("engine.cube.self_s", self_s["engine.cube"] / q, "s/query")
    put("engine.cube.cubes", sums["engine.cube:cubes"] / q, "count/query")
    put("engine.cube.resplits", sums["engine.cube:resplits"] / q, "count/query")
    put("engine.cube.imported_clauses", sums["engine.cube:imported"] / q, "count/query")
    put("logic.smtlib.self_s", self_s["logic.smtlib"] / q, "s/query")
    put(
        "logic.smtlib.bytes_per_s",
        ratio(sums["logic.smtlib:bytes"], self_s["logic.smtlib"]),
        "B/s",
    )
    put(
        "engine.portfolio.overhead_s",
        sum(race_overhead) / races if race_overhead else 0.0,
        "s/race",
    )
    put(
        "engine.portfolio.cancelled",
        sums["engine.portfolio:cancelled"] / races,
        "count/race",
    )
    for member in PORTFOLIO_MEMBERS:
        put(
            "engine.portfolio.win_frac." + member,
            sums["engine.portfolio:win." + member] / races,
            "ratio",
        )
    put("logic.parser.self_s", self_s["logic.parser"] / q, "s/query")
    put("logic.canonical.self_s", self_s["logic.canonical"] / q, "s/query")
    put("service.cache.self_s", self_s["service.cache"] / q, "s/query")
    put(
        "service.cache.hit_frac",
        ratio(sums["service.cache:hit"], sums["service.cache:lookup"]),
        "ratio",
    )
    put("engine.session.assert_self_s", self_s["engine.session.assert"] / q, "s/query")
    put("engine.session.check_self_s", self_s["engine.session.check"] / q, "s/query")
    put(
        "engine.session.incremental_frac",
        ratio(client.incremental_checks, client.session_checks),
        "ratio",
    )
    put(
        "service.server.transport_s",
        sum(client.transport_s) / len(client.transport_s) if client.transport_s else 0.0,
        "s/query",
    )
    errors = tally.errors
    other = sum(n for kind, n in errors.items() if kind not in ERROR_KINDS)
    for kind in ERROR_KINDS:
        put("service.server.errors." + kind, errors.get(kind, 0) / q, "count/query")
    put("service.server.errors.other", other / q, "count/query")
    # The wrappers time their own bookkeeping; an untraced run would be
    # faster by exactly that share of the measured time.
    cost = sum(span.cost for span in spans)
    put("trace_overhead_frac", cost / (tally.measured_s - cost), "ratio")
    return m
