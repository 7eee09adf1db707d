"""Incremental session layer tests (src/repro/engine/session.py).

Three verification subsystems from the PR's test archetype:

* a **differential incremental-vs-scratch harness**: every incremental
  ``check_sat`` is replayed as a fresh one-shot solve of the conjoined
  assertion stack and the verdicts must match;
* a **hypothesis state machine** driving random push/pop/assert/check
  sequences, cross-checked against the registered engines;
* an **unsat-core checker**: every returned core re-solves UNSAT both
  through a fresh session and through a scratch engine solve.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.status import Status
from repro.engine import registry
from repro.engine.contract import SolveRequest
from repro.engine.session import (
    SAT,
    UNKNOWN,
    UNSAT,
    CheckResult,
    Session,
    SessionError,
)
from repro.logic.canonical import canonical_key
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate
from repro.logic.terms import (
    And,
    BoolVar,
    Eq,
    FALSE,
    FuncApp,
    Lt,
    Not,
    Offset,
    Or,
    TRUE,
    Var,
)
from repro.sat.solver import CdclSolver
from repro.service.cache import ResultCache, config_fingerprint, solve_cached

VARS = [Var("x"), Var("y"), Var("z"), Var("w")]
BOOLS = [BoolVar("p"), BoolVar("q")]


def random_formula(rng, allow_uf=False, depth=2):
    """A random separation-fragment formula (optionally with UF atoms)."""
    if depth > 0 and rng.random() < 0.6:
        kind = rng.choice(["not", "and", "or"])
        if kind == "not":
            return Not(random_formula(rng, allow_uf, depth - 1))
        lhs = random_formula(rng, allow_uf, depth - 1)
        rhs = random_formula(rng, allow_uf, depth - 1)
        return And(lhs, rhs) if kind == "and" else Or(lhs, rhs)
    if rng.random() < 0.15:
        return rng.choice(BOOLS)
    if allow_uf and rng.random() < 0.3:
        f_of = FuncApp("f", (rng.choice(VARS),))
        g_of = FuncApp("f", (rng.choice(VARS),))
        return Eq(f_of, g_of)
    lhs = Offset(rng.choice(VARS), rng.randint(-2, 2))
    rhs = Offset(rng.choice(VARS), rng.randint(-2, 2))
    return Lt(lhs, rhs) if rng.random() < 0.5 else Eq(lhs, rhs)


def scratch_status(assertions, engine="hybrid", time_limit=10.0):
    """One-shot scratch verdict for the conjoined assertion stack.

    The conjunction is satisfiable iff its negation is INVALID under the
    engine contract.
    """
    conjunction = And(*assertions) if assertions else TRUE
    outcome = registry.get(engine).solve(
        SolveRequest(formula=Not(conjunction), time_limit=time_limit)
    )
    if outcome.status is Status.VALID:
        return UNSAT
    if outcome.status is Status.INVALID:
        return SAT
    return UNKNOWN


def check_against_scratch(session, engine="hybrid"):
    """Differential step: check incrementally, replay from scratch,
    insist on identical verdicts, then validate the model or the core."""
    active = list(session.assertions())
    result = session.check_sat()
    expected = scratch_status(active, engine=engine)
    assert result.status == expected, (
        "incremental %s != scratch %s on stack %r"
        % (result.status, expected, active)
    )
    if result.status == SAT:
        model = result.model
        assert model is not None
        conjunction = And(*active) if active else TRUE
        assert evaluate(conjunction, model) is True
    elif result.status == UNSAT:
        assert_core_checks(result, active, engine=engine)
    return result


def assert_core_checks(result, active, engine="hybrid"):
    """The unsat-core checker: the core is a subset of the live
    assertions and re-solves UNSAT on its own."""
    core = result.core
    assert core is not None and core == result.core
    assert core, "UNSAT answer must carry a non-empty core"
    active_set = set(active)
    assert all(f in active_set for f in core)
    # Scratch re-solve of just the core.
    assert scratch_status(core, engine=engine) == UNSAT
    # Fresh-session re-solve of just the core.
    replay = Session(engine=engine)
    for formula in core:
        replay.assert_formula(formula)
    assert replay.check_sat().status == UNSAT


class TestSessionBasics:
    def test_empty_stack_is_sat(self):
        session = Session()
        result = session.check_sat()
        assert result.status == SAT
        assert result.backend == "trivial"
        assert session.model() is not None

    def test_push_pop_scoping(self):
        session = Session()
        f1 = parse_formula("(< x y)")
        f2 = parse_formula("(< y x)")
        session.assert_formula(f1)
        assert session.depth == 0
        assert session.push() == 1
        session.assert_formula(f2)
        assert session.assertions() == [f1, f2]
        assert session.check_sat().status == UNSAT
        assert session.pop() == 0
        assert session.assertions() == [f1]
        assert session.check_sat().status == SAT

    def test_pop_below_bottom_raises(self):
        session = Session()
        with pytest.raises(SessionError):
            session.pop()
        session.push()
        session.push()
        assert session.pop(2) == 0
        with pytest.raises(SessionError):
            session.pop()

    def test_pop_level_validation(self):
        session = Session()
        session.push()
        with pytest.raises(ValueError):
            session.pop(0)
        with pytest.raises(ValueError):
            session.pop(-1)

    def test_assert_rejects_non_formula(self):
        session = Session()
        with pytest.raises(TypeError):
            session.assert_formula(Var("x"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Session(engine="nosuch")

    def test_closed_session_raises(self):
        session = Session()
        session.close()
        assert session.closed
        with pytest.raises(SessionError):
            session.check_sat()
        with pytest.raises(SessionError):
            session.assert_formula(TRUE)
        with pytest.raises(SessionError):
            session.push()

    def test_false_assertion_short_circuits(self):
        session = Session()
        session.assert_formula(parse_formula("(< x y)"))
        session.assert_formula(FALSE)
        result = session.check_sat()
        assert result.status == UNSAT
        assert result.backend == "trivial"
        assert result.core == [FALSE]
        assert session.last_core() == [FALSE]

    def test_assert_formula_returns_stack_index(self):
        session = Session()
        assert session.assert_formula(parse_formula("(< x y)")) == 0
        session.push()
        assert session.assert_formula(parse_formula("(< y z)")) == 1

    def test_state_key_matches_check_key(self):
        # A session check keys its state by the one-shot validity query
        # of the conjunction, so it shares the cache with `repro check`.
        session = Session(cache=ResultCache())
        session.assert_formula(parse_formula("(< x y)"))
        session.assert_formula(parse_formula("(= (f x) y)"))
        expected = canonical_key(Not(And(*session.assertions())))
        assert session.check_sat().key == expected

    def test_reasserting_same_formula_reuses_encoding(self):
        session = Session()
        f = parse_formula("(< x y)")
        session.assert_formula(f)
        assert session.check_sat().status == SAT
        backend = session._backend
        selectors_before = len(backend._selectors)
        session.push()
        session.assert_formula(f)
        assert session.check_sat().status == SAT
        assert len(backend._selectors) == selectors_before


class TestInSearchTheory:
    """A check is one assumption solve; the theory learns the cycles."""

    def test_cycle_behind_a_disjunction_is_one_solve(self, monkeypatch):
        # Each disjunct of x<y ∨ x<z closes a cycle with y<x or z<x, so
        # a check that re-solved once per cycle would solve three times.
        assertions = [
            parse_formula("(or (< x y) (< x z))"),
            parse_formula("(< y x)"),
            parse_formula("(< z x)"),
        ]
        session = Session()
        for formula in assertions:
            session.assert_formula(formula)
        calls = []
        solve = CdclSolver.solve_under_assumptions

        def counting(solver, assumptions=()):
            calls.append(list(assumptions))
            return solve(solver, assumptions)

        monkeypatch.setattr(CdclSolver, "solve_under_assumptions", counting)
        result = session.check_sat()
        assert result.status == UNSAT
        assert result.backend == "incremental"
        assert len(calls) == 1
        assert session.stats.theory_lemmas >= 1
        assert set(result.core) == set(assertions)


class TestEngineFallback:
    def test_uf_assertions_fall_back_to_engine(self):
        session = Session(engine="hybrid")
        session.assert_formula(parse_formula("(= x y)"))
        session.assert_formula(parse_formula("(not (= (f x) (f y)))"))
        result = session.check_sat()
        assert result.status == UNSAT
        assert result.backend == "engine"
        assert session.stats.engine_checks == 1
        # Fallback cores are the full active stack: sound, not minimal.
        assert result.core == session.assertions()

    def test_uf_sat_model_from_engine(self):
        session = Session(engine="hybrid")
        f = parse_formula("(not (= (f x) (f y)))")
        session.assert_formula(f)
        result = session.check_sat()
        assert result.status == SAT
        assert result.backend == "engine"
        assert evaluate(f, result.model) is True

    def test_mixed_stack_recovers_after_pop(self):
        # A UF assertion forces the engine path; popping it returns the
        # session to the incremental backend.
        session = Session(engine="hybrid")
        session.assert_formula(parse_formula("(< x y)"))
        session.push()
        session.assert_formula(parse_formula("(= (f x) x)"))
        assert session.check_sat().backend == "engine"
        session.pop()
        assert session.check_sat().backend == "incremental"


class TestSessionCacheComposition:
    @pytest.mark.parametrize("cached, calls", [(False, 0), (True, 3)])
    def test_checks_canonicalize_only_for_the_cache(
        self, monkeypatch, cached, calls
    ):
        import repro.engine.session as session_mod

        made = []
        original = session_mod.canonicalize

        def counting(formula):
            made.append(formula)
            return original(formula)

        monkeypatch.setattr(session_mod, "canonicalize", counting)
        session = Session(cache=ResultCache() if cached else None)
        try:
            session.assert_formula(parse_formula("(< x y)"))
            keys = [session.check_sat().key]
            session.assert_formula(parse_formula("(< y z)"))
            keys.append(session.check_sat().key)
            keys.append(session.check_sat().key)
        finally:
            session.close()
        assert len(made) == calls
        assert all(keys) if cached else keys == ["", "", ""]

    def test_sessions_share_cache_entries(self):
        cache = ResultCache()
        stack = [parse_formula("(< x y)"), parse_formula("(< y x)")]
        first = Session(cache=cache)
        for f in stack:
            first.assert_formula(f)
        assert first.check_sat().status == UNSAT
        assert first.stats.stores == 1
        second = Session(cache=cache)
        for f in stack:
            second.assert_formula(f)
        result = second.check_sat()
        assert result.status == UNSAT
        assert result.backend == "cache"
        # A cache-served UNSAT still carries a sound core.
        assert scratch_status(result.core) == UNSAT

    def test_isomorphic_session_states_share_entries(self):
        cache = ResultCache()
        first = Session(cache=cache)
        first.assert_formula(parse_formula("(< a b)"))
        assert first.check_sat().status == SAT
        renamed = Session(cache=cache)
        renamed.assert_formula(parse_formula("(< u v)"))
        result = renamed.check_sat()
        assert result.backend == "cache"
        assert evaluate(parse_formula("(< u v)"), result.model) is True

    def test_engine_seeded_cache_hits_session(self):
        cache = ResultCache()
        g = parse_formula("(< a b)")
        request = SolveRequest(formula=Not(g))
        fingerprint = config_fingerprint("hybrid", request)
        solve_cached(
            request,
            lambda r: registry.get("hybrid").solve(r),
            cache,
            fingerprint,
            "hybrid",
        )
        session = Session(engine="hybrid", cache=cache)
        session.assert_formula(g)
        result = session.check_sat()
        assert result.backend == "cache"
        assert evaluate(g, result.model) is True

    def test_session_seeded_cache_hits_engine_path(self):
        cache = ResultCache()
        h = parse_formula("(< p q)")
        session = Session(engine="hybrid", cache=cache)
        session.assert_formula(h)
        assert session.check_sat().status == SAT
        request = SolveRequest(formula=Not(h))
        fingerprint = config_fingerprint("hybrid", request)
        outcome = solve_cached(
            request,
            lambda r: registry.get("hybrid").solve(r),
            cache,
            fingerprint,
            "hybrid",
        )
        assert outcome.status is Status.INVALID
        assert outcome.stats.cache.hits_memory == 1
        assert evaluate(h, outcome.counterexample) is True


class TestDifferentialHarness:
    """Every incremental check replayed as a fresh scratch solve.

    300 randomized sessions (the acceptance floor for this PR) with
    random assert/push/pop/check schedules, a shared engine fallback
    path (UF atoms in ~15% of sessions), and full model/core checking
    on every answer.
    """

    SESSIONS = 300

    def test_randomized_sessions_replay_clean(self):
        rng = random.Random(20260808)
        checks = 0
        unsat_seen = 0
        for index in range(self.SESSIONS):
            allow_uf = index % 7 == 0
            session = Session(engine="hybrid")
            for _ in range(rng.randint(1, 6)):
                op = rng.random()
                if op < 0.55 or not session.assertions():
                    session.assert_formula(
                        random_formula(rng, allow_uf=allow_uf)
                    )
                elif op < 0.7:
                    session.push()
                elif op < 0.8 and session.depth > 0:
                    session.pop()
                else:
                    result = check_against_scratch(session)
                    checks += 1
                    unsat_seen += result.status == UNSAT
            result = check_against_scratch(session)
            checks += 1
            unsat_seen += result.status == UNSAT
        assert checks >= self.SESSIONS
        assert unsat_seen > 10  # the harness is exercising both verdicts

    def test_prefix_sharing_chain(self):
        # The motivating workload: a growing stack checked at every
        # step, then unwound — verdicts must match scratch throughout.
        rng = random.Random(5)
        session = Session(engine="hybrid")
        depth = 0
        for _ in range(12):
            session.push()
            depth += 1
            session.assert_formula(random_formula(rng))
            check_against_scratch(session)
        while depth:
            session.pop()
            depth -= 1
            check_against_scratch(session)


def _machine_for(engine_name):
    class SessionMachine(RuleBasedStateMachine):
        """Random push/pop/assert/check sequences vs scratch solving."""

        @initialize(seed=st.integers(0, 2**32 - 1))
        def setup(self, seed):
            self.rng = random.Random(seed)
            self.session = Session(engine=engine_name)
            self.shadow = [[]]  # mirrored assertion stack

        @rule()
        def do_assert(self):
            formula = random_formula(self.rng)
            self.session.assert_formula(formula)
            self.shadow[-1].append(formula)

        @rule()
        def do_push(self):
            self.session.push()
            self.shadow.append([])

        @rule()
        def do_pop(self):
            if len(self.shadow) > 1:
                self.session.pop()
                self.shadow.pop()
            else:
                with pytest.raises(SessionError):
                    self.session.pop()

        @rule()
        def do_check(self):
            check_against_scratch(self.session, engine=engine_name)

        @invariant()
        def stacks_agree(self):
            flat = [f for frame in self.shadow for f in frame]
            assert self.session.assertions() == flat
            assert self.session.depth == len(self.shadow) - 1

    SessionMachine.__name__ = "SessionMachine_%s" % engine_name
    return SessionMachine


# Drive the state machine against every registered one-shot engine the
# fallback can route to (portfolio/cached are compositions of these and
# are exercised separately above and in test_serve.py).
MACHINE_ENGINES = ["hybrid", "static", "lazy", "svc", "sd", "eij", "brute"]


@pytest.mark.parametrize("engine_name", MACHINE_ENGINES)
def test_session_state_machine(engine_name):
    machine = _machine_for(engine_name)
    machine.TestCase.settings = settings(
        max_examples=8, stateful_step_count=12, deadline=None
    )
    runner = machine.TestCase()
    runner.runTest()
