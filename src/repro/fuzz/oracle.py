"""The differential oracle: run every procedure, cross-check everything.

Oracle hierarchy (weakest assumptions first):

1. **brute force** (:mod:`repro.solvers.brute`) — enumeration against the
   reference semantics over the small-model domain; obviously correct but
   resource-limited;
2. **lazy / SVC baselines** — independent algorithms sharing almost no
   code with the eager pipeline;
3. **eager methods** (``sd``, ``eij``, ``hybrid``, ``static``) — the
   procedures under test.

Every decided verdict must agree with every other decided verdict, and
every INVALID countermodel must falsify the input under
:func:`repro.logic.semantics.evaluate`.  Resource-limited runs (``None``)
are excluded from the comparison rather than treated as verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..engine import registry
from ..engine.contract import SolveRequest
from ..logic.semantics import evaluate
from ..logic.terms import Formula, Lt, Offset
from ..logic.traversal import (
    collect_bool_vars,
    collect_func_symbols,
    collect_pred_symbols,
    collect_vars,
)
from .rewrite import rebuild

__all__ = [
    "MethodOutcome",
    "Discrepancy",
    "METHOD_NAMES",
    "default_methods",
    "run_methods",
    "differential_check",
    "check_outcomes",
    "decided_verdict",
    "consensus_verdict",
    "inject_strictness_bug",
]

#: Enumeration budget for the brute-force reference, chosen so the stock
#: profiles are almost always fully decided in well under a second.
DEFAULT_ORACLE_LIMIT = 200_000


@dataclass
class MethodOutcome:
    """One procedure's answer on one sample."""

    name: str
    valid: Optional[bool] = None  # None = resource-limited / undecided
    countermodel_ok: Optional[bool] = None  # None = no countermodel to check
    error: Optional[str] = None


@dataclass
class Discrepancy:
    """A cross-check failure, ready for shrinking and serialization.

    ``kind`` is one of ``"verdict"`` (two procedures decided differently),
    ``"countermodel"`` (an INVALID verdict whose model does not falsify the
    formula), ``"crash"`` (a procedure raised), or ``"metamorphic"`` (a
    verdict-preserving transform changed the verdict; attached by the
    harness, not here).
    """

    kind: str
    formula: Formula
    detail: str
    verdicts: Dict[str, Optional[bool]] = field(default_factory=dict)
    transform: Optional[str] = None

    def describe(self) -> str:
        parts = ["%s discrepancy: %s" % (self.kind, self.detail)]
        if self.transform:
            parts.append("transform: %s" % self.transform)
        if self.verdicts:
            parts.append(
                "verdicts: "
                + ", ".join(
                    "%s=%s" % (name, value)
                    for name, value in sorted(self.verdicts.items())
                )
            )
        return "; ".join(parts)


def _engine_method(
    name: str, preprocess: bool = True, **options
) -> Callable[[Formula], MethodOutcome]:
    """Wrap a registry engine as a differential-oracle method.

    Limit-style knobs travel in the request's ``options``; resource-
    limited outcomes map to ``valid=None`` (excluded from comparison),
    and every INVALID countermodel is replayed against the reference
    semantics.  ``preprocess`` toggles the eager pipeline's CNF
    simplification stage, so the same engine can be registered as two
    differential configurations (with and without preprocessing).
    """

    def run(formula: Formula) -> MethodOutcome:
        result = registry.get(name).solve(
            SolveRequest(
                formula=formula,
                preprocess=preprocess,
                options=dict(options),
            )
        )
        outcome = MethodOutcome(name, valid=result.valid)
        if result.valid is False and result.counterexample is not None:
            outcome.countermodel_ok = not evaluate(
                formula, result.counterexample
            )
        return outcome

    return run


def _alpha_variant(formula: Formula) -> Formula:
    """An injectively renamed copy of ``formula`` (same isomorphism
    class, disjoint spelling) for exercising canonical-key collisions."""
    from ..logic.canonical import rename_symbols

    return rename_symbols(
        formula,
        vars={v.name: "rn_" + v.name for v in collect_vars(formula)},
        bools={b.name: "rn_" + b.name for b in collect_bool_vars(formula)},
        funcs={name: "rn_" + name for name in collect_func_symbols(formula)},
        preds={name: "rn_" + name for name in collect_pred_symbols(formula)},
    )


def _cached_method(
    inner: str = "hybrid",
) -> Callable[[Formula], MethodOutcome]:
    """The ``cached`` differential arm: the result cache under test.

    Holds a cache that is *cold at the start of every campaign* (one
    fresh :class:`ResultCache` per ``default_methods()`` call) and, per
    sample, solves three times:

    1. the formula itself (populates the cache on a decided verdict),
    2. the formula again (must be answered from the cache),
    3. an alpha-renamed variant (must *hit the same entry* via the
       canonical key, with the countermodel lifted through the
       renaming map).

    All three verdicts must agree, every countermodel must falsify the
    formula it was returned for, and the repeat solve must actually hit
    — any violation surfaces as a discrepancy against the bare engines.
    """
    from ..service.cache import CachedEngine, ResultCache

    engine = CachedEngine(cache=ResultCache())

    def run(formula: Formula) -> MethodOutcome:
        cold = engine.solve(
            SolveRequest(formula=formula, options={"engine": inner})
        )
        warm = engine.solve(
            SolveRequest(formula=formula, options={"engine": inner})
        )
        renamed_formula = _alpha_variant(formula)
        renamed = engine.solve(
            SolveRequest(formula=renamed_formula, options={"engine": inner})
        )
        outcome = MethodOutcome("cached", valid=cold.valid)
        if not (cold.valid == warm.valid == renamed.valid):
            outcome.error = (
                "cache changed a verdict: cold=%s warm=%s renamed=%s"
                % (cold.valid, warm.valid, renamed.valid)
            )
            return outcome
        if cold.valid is not None and (
            warm.stats.cache is None or warm.stats.cache.hits == 0
        ):
            outcome.error = "repeat solve missed the cache on a decided verdict"
            return outcome
        if cold.valid is not None and (
            renamed.stats.cache is None or renamed.stats.cache.hits == 0
        ):
            outcome.error = (
                "alpha-renamed variant missed the cache (canonical keys "
                "diverged within one isomorphism class)"
            )
            return outcome
        if cold.valid is False:
            checks = [
                not evaluate(query, result.counterexample)
                for result, query in (
                    (cold, formula),
                    (warm, formula),
                    (renamed, renamed_formula),
                )
                if result.counterexample is not None
            ]
            if checks:
                outcome.countermodel_ok = all(checks)
        return outcome

    return run


def _incremental_method(
    inner: str = "hybrid",
) -> Callable[[Formula], MethodOutcome]:
    """The ``incremental`` differential arm: assumption-based sessions
    under test (:mod:`repro.engine.session`).

    Holds **one** session for the whole campaign, so the solver's clause
    database, variable activities, and theory lemmas persist across
    samples — retention must never leak a verdict between unrelated
    queries.  Per sample it runs a prefix-sharing sequence in pushed
    frames:

    1. assert the sample's negation and check (the sample is VALID iff
       the negation is unsatisfiable) — cross-checked against a one-shot
       scratch solve of the assertion stack;
    2. push a random same-vocabulary difference atom on top and re-check
       (again vs. scratch: the shared prefix is where incrementality
       actually bites);
    3. pop back and re-check — the verdict from step 1 must reproduce.

    Every SAT model is replayed through the reference semantics and
    every UNSAT core is re-solved from scratch.
    """
    import random as random_mod
    import zlib

    from ..engine.session import SAT, UNKNOWN, UNSAT, Session
    from ..logic.printer import to_sexpr
    from ..logic.terms import And, Lt, Not, Offset, TRUE

    session = Session(engine=inner)

    def scratch(assertions: List[Formula]) -> str:
        conjunction = And(*assertions) if assertions else TRUE
        result = registry.get(inner).solve(
            SolveRequest(formula=Not(conjunction))
        )
        if result.valid is True:
            return UNSAT
        if result.valid is False:
            return SAT
        return UNKNOWN

    def cross_check(
        outcome: MethodOutcome, label: str
    ) -> Optional[str]:
        """One incremental check vs. scratch; returns the status."""
        stack = session.assertions()
        result = session.check_sat()
        expected = scratch(stack)
        if UNKNOWN in (result.status, expected):
            return None
        if result.status != expected:
            outcome.error = (
                "%s: incremental %s != scratch %s"
                % (label, result.status, expected)
            )
            return None
        if result.status == SAT:
            conjunction = And(*stack) if stack else TRUE
            if evaluate(conjunction, result.model) is not True:
                outcome.error = (
                    "%s: SAT model does not satisfy the stack" % label
                )
                return None
        else:
            core = session.last_core()
            if not core or scratch(core) != UNSAT:
                outcome.error = (
                    "%s: unsat core failed to re-solve UNSAT" % label
                )
                return None
        return result.status

    def run(formula: Formula) -> MethodOutcome:
        outcome = MethodOutcome("incremental")
        rng = random_mod.Random(
            zlib.crc32(to_sexpr(formula).encode("utf-8"))
        )
        session.push()
        try:
            session.assert_formula(Not(formula))
            first = cross_check(outcome, "base query")
            if outcome.error is not None:
                return outcome
            if first is not None:
                outcome.valid = first == UNSAT
                if first == SAT:
                    outcome.countermodel_ok = not evaluate(
                        formula, session.model()
                    )
            variables = sorted(collect_vars(formula), key=lambda v: v.name)
            if len(variables) >= 2:
                lhs, rhs = rng.sample(variables, 2)
                session.push()
                session.assert_formula(
                    Lt(
                        Offset(lhs, rng.randint(-2, 2)),
                        Offset(rhs, rng.randint(-2, 2)),
                    )
                )
                cross_check(outcome, "extended stack")
                session.pop()
                if outcome.error is not None:
                    return outcome
                replay = cross_check(outcome, "replay after pop")
                if outcome.error is None and None not in (first, replay):
                    if replay != first:
                        outcome.error = (
                            "replay after pop changed the verdict: "
                            "%s -> %s" % (first, replay)
                        )
            return outcome
        finally:
            session.pop()

    return run


def _smtlib_roundtrip_method(
    inner: str = "hybrid",
) -> Callable[[Formula], MethodOutcome]:
    """The ``smtlib-roundtrip`` differential arm: printer ∘ reader.

    Serializes every sample with :func:`to_smtlib_script` (asserting the
    negation, the way benchmark scripts are written), re-reads it with
    :func:`parse_smtlib`, and requires the recovered validity query to
    land in the same alpha-invariant canonical-key class as the input —
    any drift is reported as an error outright.  The verdict is then
    computed on the *reparsed* formula, so a silent perturbation that
    survived the key check would still surface as a verdict disagreement
    against the arms solving the original.
    """
    from ..logic.canonical import canonical_key
    from ..logic.smtlib import parse_smtlib, to_smtlib_script
    from ..logic.terms import Not

    def run(formula: Formula) -> MethodOutcome:
        outcome = MethodOutcome("smtlib-roundtrip")
        script = parse_smtlib(to_smtlib_script(formula))
        recovered = Not(script.conjunction())
        if canonical_key(recovered) != canonical_key(formula):
            outcome.error = (
                "print -> parse changed the formula's canonical key"
            )
            return outcome
        result = registry.get(inner).solve(SolveRequest(formula=recovered))
        outcome.valid = result.valid
        if result.valid is False and result.counterexample is not None:
            outcome.countermodel_ok = not evaluate(
                recovered, result.counterexample
            )
        return outcome

    return run


#: The campaign's arms in run order, each built for the brute budget.
_ARMS: Dict[str, Callable[[int], Callable[[Formula], MethodOutcome]]] = {
    "brute": lambda limit: _engine_method("brute", limit=limit),
    "sd": lambda limit: _engine_method("sd", preprocess=False),
    "eij": lambda limit: _engine_method("eij", preprocess=False),
    "hybrid": lambda limit: _engine_method("hybrid", preprocess=False),
    "static": lambda limit: _engine_method("static", preprocess=False),
    "sd+preprocess": lambda limit: _engine_method("sd"),
    "hybrid+preprocess": lambda limit: _engine_method("hybrid"),
    "lazy": lambda limit: _engine_method("lazy", max_iterations=10_000),
    "svc": lambda limit: _engine_method("svc", max_splits=200_000),
    "portfolio": lambda limit: _engine_method("portfolio"),
    "cached": lambda limit: _cached_method(),
    "incremental": lambda limit: _incremental_method(),
    "cube": lambda limit: _engine_method("cube", cube_depth=2, cube_procs=1),
    "smtlib-roundtrip": lambda limit: _smtlib_roundtrip_method(),
}

#: The arm names ``repro fuzz --methods`` takes a subset of.
METHOD_NAMES = tuple(_ARMS)


def default_methods(
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    names: Optional[List[str]] = None,
) -> Dict[str, Callable[[Formula], MethodOutcome]]:
    """The full method registry, optionally restricted to ``names``.

    ``brute`` is the reference; the eager methods and both baselines are
    the systems under test.  The bare eager methods run with the CNF
    preprocessing stage off (the raw encodings the paper describes);
    ``sd+preprocess`` / ``hybrid+preprocess`` run the same engines with
    preprocessing on, so every verdict *and* every countermodel coming
    back through the model-reconstruction stack is cross-checked against
    all other procedures.  ``portfolio`` is the default race under
    differential test: its adopted verdict and countermodel, whether
    its eager first member decided in-process or a forked member won,
    are cross-checked like any engine's.  ``cached`` is the
    result-cache layer under differential test (cold store per
    campaign, every formula solved twice plus an alpha-renamed variant;
    see :func:`_cached_method`).
    ``incremental`` is the assumption-based session layer under
    differential test (one persistent session per campaign, random
    prefix-sharing sequences cross-checked against one-shot scratch
    solves; see :func:`_incremental_method`).  ``cube`` is the
    cube-and-conquer conductor under differential test: every sample is
    split by the lookahead generator and conquered under assumption
    prefixes, and both the verdict and the lifted countermodel are
    cross-checked against the sequential procedures (sequential
    conquering — ``cube_procs=1`` — keeps the campaign fast while still
    exercising cube generation, refutation, and prefix solving).
    ``smtlib-roundtrip`` is the SMT-LIB printer/reader pair under
    differential test: every sample is serialized and re-parsed, the
    canonical keys must match, and the verdict is recomputed on the
    reparsed formula (see :func:`_smtlib_roundtrip_method`).
    Every method dispatches through :mod:`repro.engine.registry`.
    """
    chosen = METHOD_NAMES if names is None else names
    unknown = sorted(set(chosen) - set(METHOD_NAMES))
    if unknown:
        raise ValueError(
            "unknown method(s) %s; expected a subset of %s"
            % (", ".join(unknown), ", ".join(METHOD_NAMES))
        )
    return {name: _ARMS[name](oracle_limit) for name in chosen}


def run_methods(
    formula: Formula,
    methods: Dict[str, Callable[[Formula], MethodOutcome]],
) -> List[MethodOutcome]:
    outcomes: List[MethodOutcome] = []
    for name, run in methods.items():
        try:
            outcome = run(formula)
        except Exception as exc:  # a crash is a finding, not an abort
            outcome = MethodOutcome(name, error="%s: %s" % (type(exc).__name__, exc))
        outcome.name = name
        outcomes.append(outcome)
    return outcomes


def decided_verdict(outcomes: List[MethodOutcome]) -> Optional[bool]:
    """The first decided verdict among ``outcomes`` (``None``: undecided)."""
    for outcome in outcomes:
        if outcome.error is None and outcome.valid is not None:
            return outcome.valid
    return None


def differential_check(
    formula: Formula,
    methods: Dict[str, Callable[[Formula], MethodOutcome]],
) -> Optional[Discrepancy]:
    """Cross-check all methods on ``formula``; ``None`` means agreement."""
    return check_outcomes(formula, run_methods(formula, methods))


def check_outcomes(
    formula: Formula, outcomes: List[MethodOutcome]
) -> Optional[Discrepancy]:
    """Cross-check already-computed outcomes; ``None`` means agreement."""
    verdicts = {o.name: o.valid for o in outcomes}

    for outcome in outcomes:
        if outcome.error is not None:
            return Discrepancy(
                kind="crash",
                formula=formula,
                detail="%s raised %s" % (outcome.name, outcome.error),
                verdicts=verdicts,
            )
    for outcome in outcomes:
        if outcome.countermodel_ok is False:
            return Discrepancy(
                kind="countermodel",
                formula=formula,
                detail=(
                    "%s returned INVALID with a countermodel that does "
                    "not falsify the formula" % outcome.name
                ),
                verdicts=verdicts,
            )
    decided = {
        name: value for name, value in verdicts.items() if value is not None
    }
    if len(set(decided.values())) > 1:
        return Discrepancy(
            kind="verdict",
            formula=formula,
            detail="decided verdicts disagree",
            verdicts=verdicts,
        )
    return None


def consensus_verdict(
    formula: Formula,
    methods: Dict[str, Callable[[Formula], MethodOutcome]],
) -> Optional[bool]:
    """The first decided verdict, or ``None`` if nothing was decided."""
    for run in methods.values():
        try:
            outcome = run(formula)
        # A crashed method simply abstains from the metamorphic
        # consensus; run_methods() is the path that records crashes.
        # repro: ignore[RE304] -- abstain-on-crash is the contract here
        except Exception:
            continue
        if outcome.valid is not None:
            return outcome.valid
    return None


# ---------------------------------------------------------------------------
# Bug injection (self-check / tests)
# ---------------------------------------------------------------------------


def _drop_strictness(formula: Formula) -> Formula:
    """Model an off-by-one comparator bug: encode ``a < b`` as ``a <= b``."""

    def weaken(node):
        if isinstance(node, Lt):
            return Lt(node.lhs, Offset(node.rhs, 1))
        return node

    return rebuild(formula, formula_fn=weaken)


def inject_strictness_bug(
    methods: Dict[str, Callable[[Formula], MethodOutcome]],
    victim: str = "hybrid",
) -> Dict[str, Callable[[Formula], MethodOutcome]]:
    """A registry where ``victim`` suffers the strictness-dropping bug.

    Used by ``repro fuzz --self-check`` and the test suite to prove the
    harness actually catches and shrinks encoder bugs.
    """
    if victim not in methods:
        raise ValueError("victim %r not in the method registry" % victim)
    sound = methods[victim]

    def buggy(formula: Formula) -> MethodOutcome:
        return sound(_drop_strictness(formula))

    injected = dict(methods)
    injected[victim] = buggy
    return injected
