"""Incremental solving sessions: assert / push / pop / check over one solver.

The paper's flagship applications (translation validation, predicate
abstraction) fire thousands of closely related queries.  A
:class:`Session` serves that workload: it maintains a stack of asserted
SUF formulas and decides satisfiability of their conjunction with one
long-lived CDCL solver whose clause database, variable activities, and
saved phases carry over between checks.

Architecture
------------
Assertions in the *separation fragment* (``=``/``<`` atoms over symbolic
constants and offsets, Boolean structure, Boolean constants) are handled
natively and incrementally:

* every atom maps to difference-bound Boolean variables from one shared
  :class:`~repro.encodings.sepvars.SepVarRegistry` (the same abstraction
  the lazy engine uses, without eager transitivity constraints);
* each asserted formula is Tseitin-encoded *once* into a growing CNF,
  guarded by a fresh **selector variable** (``selector → formula``);
* ``check_sat`` activates the live assertions' selectors as solver
  assumptions (:meth:`~repro.sat.solver.CdclSolver.solve_under_assumptions`)
  and runs the lazy theory-refinement loop: a propositional model's
  asserted bounds are checked with Bellman–Ford, and each negative cycle
  becomes a conflict clause.  Refinement lemmas are valid
  difference-logic facts, so they are added *unguarded* and deliberately
  outlive every push/pop — exactly like retained learned clauses;
* an UNSAT answer's assumption core maps selector literals back to the
  asserted formulas: :meth:`Session.last_core` is a sound unsat core
  (re-asserting only the core formulas stays unsatisfiable).

Assertions outside the fragment (uninterpreted function/predicate
applications, ITE terms) make the check fall back to a one-shot solve of
the conjunction through the configured registry engine — slower, but
exactly as sound, and cores degrade to the full assertion list.

Engine-contract composition
---------------------------
Satisfiability maps onto the validity question every engine speaks: the
conjunction ``F`` is satisfiable iff ``Not(F)`` is INVALID, and a
countermodel of ``Not(F)`` *is* a model of ``F``.  The session reuses
the canonicalization key of ``Not(F)``, so its cache entries are
ordinary validity entries — sessions, ``repro check`` and ``repro
serve`` all compose with the same two-tier result cache.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.decision import boolvar_model, dimacs_literal
from ..core.status import Status
from ..encodings.sepvars import SepVarRegistry
from ..logic.canonical import CanonicalForm, canonicalize, lift_interpretation
from ..logic.semantics import Interpretation
from ..logic.terms import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    FALSE,
    Formula,
    Iff,
    Implies,
    Lt,
    Node,
    Not,
    Offset,
    Or,
    TRUE,
    Term,
    Var,
)
from ..logic.traversal import collect_bool_vars, collect_vars, postorder
from ..sat.cnf import Cnf
from ..sat.solver import CdclSolver, SatResult
from ..sat.tseitin import tseitin
from ..theory.difference import check_bounds
from .contract import SolveRequest

if TYPE_CHECKING:  # deferred to dodge the service ↔ engine import cycle
    from ..service.cache import ResultCache

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "CheckResult",
    "Session",
    "SessionError",
    "SessionStats",
]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Safety valve on the theory-refinement loop of one check.
MAX_REFINEMENTS = 100_000


class SessionError(Exception):
    """Stack misuse: pop below the bottom frame, use after close."""


class _Unsupported(Exception):
    """An assertion falls outside the incremental separation fragment."""


@dataclass
class SessionStats:
    """Counters across one session's lifetime."""

    checks: int = 0
    cache_hits: int = 0
    incremental_checks: int = 0
    engine_checks: int = 0
    theory_lemmas: int = 0
    stores: int = 0


@dataclass
class CheckResult:
    """One ``check_sat`` answer.

    ``status`` is ``"sat"`` / ``"unsat"`` / ``"unknown"``; ``backend``
    records which path produced it (``incremental``, ``engine``,
    ``cache``, or ``trivial``); ``key`` is the canonical key of the
    validity query ``Not(conjunction)`` that scopes the cache entry.
    """

    status: str
    model: Optional[Interpretation] = None
    core: Optional[List[Formula]] = None
    backend: str = ""
    key: str = ""
    wall_seconds: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT


class _IncrementalBackend:
    """Selector-guarded incremental abstraction-refinement core.

    One growing CNF, one growing solver, one shared atom registry and
    Tseitin memo.  Encodings are permanent: popping an assertion merely
    stops activating its selector, so re-asserting it later costs
    nothing and everything the solver learned meanwhile is kept.
    """

    def __init__(self) -> None:
        self._cnf = Cnf()
        self._solver = CdclSolver(self._cnf)
        self._fed_clauses = 0
        self._registry = SepVarRegistry()
        self._tseitin_memo: Dict[Node, int] = {}
        self._abstract_memo: Dict[Formula, Formula] = {}
        self._selectors: Dict[Formula, int] = {}
        self._by_selector: Dict[int, Formula] = {}
        self.theory_lemmas = 0

    # -- encoding ------------------------------------------------------------

    @staticmethod
    def _split(term: Term) -> Tuple[Var, int]:
        """Decompose ``term`` as ``base + k`` with a ``Var`` base."""
        if isinstance(term, Offset):
            base: Term = term.base
            k = term.k
        else:
            base, k = term, 0
        if not isinstance(base, Var):
            raise _Unsupported("non-constant term %r" % (term,))
        return base, k

    def _abstract(self, formula: Formula) -> Formula:
        """Propositional abstraction over registry difference bounds."""
        memo = self._abstract_memo
        for node in postorder(formula):
            if not isinstance(node, Formula) or node in memo:
                continue
            out: Formula
            if isinstance(node, (BoolConst, BoolVar)):
                out = node
            elif isinstance(node, Eq):
                # x + a = y + b  ⇔  x - y <= c  ∧  y - x <= -c  (c = b - a)
                x, a = self._split(node.lhs)
                y, b = self._split(node.rhs)
                c = b - a
                out = And(
                    self._registry.literal(x, y, c),
                    self._registry.literal(y, x, -c),
                )
            elif isinstance(node, Lt):
                # x + a < y + b  ⇔  x - y <= b - a - 1
                x, a = self._split(node.lhs)
                y, b = self._split(node.rhs)
                out = self._registry.literal(x, y, b - a - 1)
            elif isinstance(node, Not):
                out = Not(memo[node.arg])
            elif isinstance(node, And):
                out = And(*[memo[arg] for arg in node.args])
            elif isinstance(node, Or):
                out = Or(*[memo[arg] for arg in node.args])
            elif isinstance(node, Implies):
                out = Implies(memo[node.lhs], memo[node.rhs])
            elif isinstance(node, Iff):
                out = Iff(memo[node.lhs], memo[node.rhs])
            else:  # PredApp (FuncApp/Ite surface through _split)
                raise _Unsupported(
                    "unsupported connective %s" % type(node).__name__
                )
            memo[node] = out
        return memo[formula]

    def _selector(self, formula: Formula) -> int:
        """Selector variable guarding ``formula``'s (one-time) encoding."""
        sel = self._selectors.get(formula)
        if sel is None:
            prop = self._abstract(formula)
            sel = self._cnf.new_var(
                ("session", "selector", len(self._selectors))
            )
            # tseitin hands back a packed root; guard it with the packed
            # negative selector literal so the clause never round-trips
            # through the signed representation.
            _, root = tseitin(prop, self._cnf, self._tseitin_memo)
            self._cnf.add_packed_clause([(sel << 1) | 1, root])
            self._selectors[formula] = sel
            self._by_selector[sel] = formula
            self._sync()
        return sel

    def _sync(self) -> None:
        """Feed CNF growth (new vars and clauses) into the live solver.

        Bulk-attaches straight from the packed arena: no signed clause
        lists are materialized on the incremental path.
        """
        self._solver.attach_from(self._cnf, self._fed_clauses)
        self._fed_clauses = len(self._cnf)

    # -- checking ------------------------------------------------------------

    def _build_model(
        self,
        assertions: Sequence[Formula],
        bool_model: Dict[BoolVar, bool],
        theory_model: Dict[Var, int],
    ) -> Interpretation:
        """Restrict the raw models to the live assertions' vocabulary."""
        vars_out: Dict[str, int] = {}
        bools_out: Dict[str, bool] = {}
        for formula in assertions:
            for var in collect_vars(formula):
                vars_out[var.name] = theory_model.get(var, 0)
            for bvar in collect_bool_vars(formula):
                if bvar in bool_model:
                    bools_out[bvar.name] = bool_model[bvar]
        return Interpretation(vars=vars_out, bools=bools_out)

    def check(
        self,
        assertions: Sequence[Formula],
        time_limit: Optional[float] = None,
    ) -> Tuple[str, Optional[Interpretation], Optional[List[Formula]]]:
        """Decide SAT of the conjunction of ``assertions``.

        Returns ``(status, model, core)``; exactly one of ``model`` /
        ``core`` is set on a decided answer.  Raises :class:`_Unsupported`
        when any assertion falls outside the separation fragment.
        """
        sels = [self._selector(f) for f in assertions]
        start = time.perf_counter()
        solver = self._solver
        for _ in range(MAX_REFINEMENTS):
            if time_limit is not None:
                remaining = time_limit - (time.perf_counter() - start)
                if remaining <= 0:
                    return UNKNOWN, None, None
                solver.time_limit = remaining
            else:
                solver.time_limit = None
            result: SatResult = solver.solve_under_assumptions(sels)
            if result.status == "UNKNOWN":
                return UNKNOWN, None, None
            if result.is_unsat:
                return UNSAT, None, self._core_formulas(result.core)
            model = result.model or {}
            bool_model = boolvar_model(self._cnf, model)
            bounds = self._registry.asserted_bounds(bool_model)
            theory = check_bounds(bounds)
            if theory.consistent:
                interp = self._build_model(
                    assertions, bool_model, theory.model or {}
                )
                return SAT, interp, None
            # Refine: the negative cycle becomes an unguarded conflict
            # clause — a valid theory lemma, safe to retain forever.
            cycle = theory.cycle or []
            clause = [
                -dimacs_literal(
                    self._cnf,
                    self._registry.literal(bound.lhs, bound.rhs, bound.c),
                )
                for bound in cycle
            ]
            self._cnf.add_clause(clause)
            self._sync()
            self.theory_lemmas += 1
        return UNKNOWN, None, None

    def _core_formulas(
        self, core: Optional[List[int]]
    ) -> List[Formula]:
        """Map an assumption core (selector literals) back to assertions."""
        out: List[Formula] = []
        seen: Dict[int, bool] = {}
        for lit in core or []:
            formula = self._by_selector.get(lit)
            if formula is not None and lit not in seen:
                seen[lit] = True
                out.append(formula)
        return out


class Session:
    """An incremental assertion-stack session (assert / push / pop / check).

    See the module docstring for the architecture.  Typical use::

        session = Session(engine="hybrid")
        session.assert_formula(f)
        session.push()
        session.assert_formula(g)
        if session.check_sat().is_unsat:
            core = session.last_core()
        session.pop()

    Not thread-safe per instance (``repro serve`` serializes access per
    session id); distinct sessions are independent.
    """

    def __init__(
        self,
        engine: str = "hybrid",
        cache: Optional["ResultCache"] = None,
        time_limit: Optional[float] = None,
        want_model: bool = True,
    ) -> None:
        from . import registry

        if engine not in registry.list_engines():
            raise ValueError(
                "unknown engine %r; registered: %s"
                % (engine, ", ".join(registry.list_engines()))
            )
        self._engine_name = engine
        self._cache = cache
        self._time_limit = time_limit
        self._want_model = want_model
        self._frames: List[List[Formula]] = [[]]
        self._backend = _IncrementalBackend()
        self._last_model: Optional[Interpretation] = None
        self._last_core: Optional[List[Formula]] = None
        self._closed = False
        self._lock = threading.Lock()
        self.stats = SessionStats()
        if cache is not None:
            from ..service.cache import config_fingerprint

            self._fingerprint = config_fingerprint(
                engine, SolveRequest(formula=TRUE)
            )
        else:
            self._fingerprint = ""

    # -- stack ---------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def assert_formula(self, formula: Formula) -> int:
        """Append ``formula`` to the top frame; returns its stack index."""
        self._ensure_open()
        if not isinstance(formula, Formula):
            raise TypeError(
                "assert_formula expects a Formula, got %r" % (formula,)
            )
        self._frames[-1].append(formula)
        return sum(len(frame) for frame in self._frames) - 1

    def push(self) -> int:
        """Open a new frame; returns the new stack depth."""
        self._ensure_open()
        self._frames.append([])
        return self.depth

    def pop(self, levels: int = 1) -> int:
        """Discard the top ``levels`` frames; returns the new depth.

        Raises :class:`SessionError` when popping below the bottom frame
        (the bottom frame itself is never popped).
        """
        self._ensure_open()
        if levels < 1:
            raise ValueError("pop levels must be >= 1, got %r" % (levels,))
        if levels > self.depth:
            raise SessionError(
                "pop(%d) below the bottom of a stack at depth %d"
                % (levels, self.depth)
            )
        del self._frames[-levels:]
        return self.depth

    @property
    def depth(self) -> int:
        """Number of frames above the bottom one (0 after construction)."""
        return len(self._frames) - 1

    def assertions(self) -> List[Formula]:
        """All live assertions, bottom frame first."""
        return [f for frame in self._frames for f in frame]

    def close(self) -> None:
        """Mark the session closed; further operations raise."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- checking ------------------------------------------------------------

    def state_key(self) -> str:
        """Canonical key of the current state's validity query.

        The key of ``Not(conjunction)`` — the same key ``repro check``
        on that formula would cache under, which is what lets session
        states compose with the two-tier cache.
        """
        from ..logic.canonical import canonical_key

        active = self.assertions()
        conjunction: Formula = And(*active) if active else TRUE
        return canonical_key(Not(conjunction))

    def last_core(self) -> Optional[List[Formula]]:
        """Unsat core of the last UNSAT ``check_sat`` (sound: the core
        formulas alone are jointly unsatisfiable; minimal only on the
        incremental path)."""
        return self._last_core

    def model(self) -> Optional[Interpretation]:
        """Model from the last SAT ``check_sat``."""
        return self._last_model

    def check_sat(
        self, time_limit: Optional[float] = None
    ) -> CheckResult:
        """Decide satisfiability of the conjunction of live assertions."""
        self._ensure_open()
        with self._lock:
            return self._check_sat_locked(
                time_limit if time_limit is not None else self._time_limit
            )

    def _check_sat_locked(self, time_limit: Optional[float]) -> CheckResult:
        start = time.perf_counter()
        self.stats.checks += 1
        self._last_model = None
        self._last_core = None
        active = self.assertions()
        conjunction: Formula = And(*active) if active else TRUE

        if conjunction is TRUE:
            self._last_model = Interpretation()
            return CheckResult(
                SAT,
                model=self._last_model,
                backend="trivial",
                wall_seconds=time.perf_counter() - start,
            )
        if conjunction is FALSE:
            # Some assertion folded to ``false`` at construction time.
            core = [f for f in active if f is FALSE] or list(active)
            self._last_core = core
            return CheckResult(
                UNSAT,
                core=core,
                backend="trivial",
                wall_seconds=time.perf_counter() - start,
            )

        query: Formula = Not(conjunction)
        form = canonicalize(query)
        hit = self._cache_lookup(active, form)
        if hit is not None:
            hit.wall_seconds = time.perf_counter() - start
            return hit

        try:
            status, model, core = self._backend.check(
                active, time_limit=time_limit
            )
            backend = "incremental"
            self.stats.incremental_checks += 1
            self.stats.theory_lemmas = self._backend.theory_lemmas
        except _Unsupported:
            status, model, core = self._check_via_engine(
                query, active, time_limit
            )
            backend = "engine"
            self.stats.engine_checks += 1

        self._last_model = model
        self._last_core = core
        self._cache_store(status, model, form, backend)
        return CheckResult(
            status,
            model=model,
            core=core,
            backend=backend,
            key=form.key,
            wall_seconds=time.perf_counter() - start,
        )

    def _check_via_engine(
        self,
        query: Formula,
        active: Sequence[Formula],
        time_limit: Optional[float],
    ) -> Tuple[str, Optional[Interpretation], Optional[List[Formula]]]:
        """One-shot fallback through the configured registry engine."""
        from . import registry

        request = SolveRequest(
            formula=query,
            want_countermodel=True,
            time_limit=time_limit,
        )
        outcome = registry.get(self._engine_name).solve(request)
        if outcome.status is Status.VALID:
            return UNSAT, None, list(active)
        if outcome.status is Status.INVALID:
            return SAT, outcome.counterexample, None
        return UNKNOWN, None, None

    # -- cache composition ---------------------------------------------------

    def _cache_lookup(
        self, active: Sequence[Formula], form: CanonicalForm
    ) -> Optional[CheckResult]:
        if self._cache is None:
            return None
        entry, _tier = self._cache.lookup(
            form.key, self._fingerprint, want_countermodel=self._want_model
        )
        if entry is None:
            return None
        self.stats.cache_hits += 1
        if entry.status == str(Status.VALID):
            self._last_core = list(active)
            return CheckResult(
                UNSAT, core=self._last_core, backend="cache", key=form.key
            )
        model: Optional[Interpretation] = None
        if entry.countermodel is not None:
            model = lift_interpretation(entry.countermodel, form)
        self._last_model = model
        return CheckResult(SAT, model=model, backend="cache", key=form.key)

    def _cache_store(
        self,
        status: str,
        model: Optional[Interpretation],
        form: CanonicalForm,
        backend: str,
    ) -> None:
        if self._cache is None or status == UNKNOWN:
            return
        from ..service.cache import CacheEntry

        stored_model: Optional[Interpretation] = None
        if status == SAT and model is not None:
            stored_model = _to_canonical(model, form)
        entry_status = Status.VALID if status == UNSAT else Status.INVALID
        if self._cache.store(
            form.key,
            self._fingerprint,
            CacheEntry(
                status=str(entry_status),
                countermodel=stored_model,
                engine="session:%s" % backend,
            ),
        ):
            self.stats.stores += 1


def _to_canonical(
    model: Interpretation, form: CanonicalForm
) -> Interpretation:
    """Rename a model from original names into ``form``'s canonical names
    (the inverse of :func:`~repro.logic.canonical.lift_interpretation`);
    names outside the renaming pass through unchanged."""
    vars_fwd = {orig: canon for canon, orig in form.vars.items()}
    bools_fwd = {orig: canon for canon, orig in form.bools.items()}
    funcs_fwd = {orig: canon for canon, orig in form.funcs.items()}
    preds_fwd = {orig: canon for canon, orig in form.preds.items()}
    return Interpretation(
        vars={vars_fwd.get(n, n): v for n, v in model.vars.items()},
        bools={bools_fwd.get(n, n): v for n, v in model.bools.items()},
        funcs={funcs_fwd.get(n, n): dict(t) for n, t in model.funcs.items()},
        preds={preds_fwd.get(n, n): dict(t) for n, t in model.preds.items()},
        func_default=model.func_default,
        pred_default=model.pred_default,
    )
