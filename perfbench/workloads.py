"""The four workloads: seeded query streams, the closed loops that run
them, and the answer checks made after the timed interval.

Every workload is a closed loop driven by this one client process.  The
seed fixes the query order and every random draw; the program only ever
sees the generated inputs.  Order matters beyond the mix: node ``uid``s
come from one process-wide counter and the encoders sort by them, so the
SAT work of a query depends on which queries the process decided before
it.  That is why every run is a fresh interpreter and every seed one
fixed order.

Settings are the ones EXPERIMENTS.md reports (SEP_THOLD 100, a 100 000
clause transitivity budget, a 20 s limit per query) unless a workload
says otherwise.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.benchgen import suite
from repro.core.status import Status
from repro.engine import portfolio, registry
from repro.engine.contract import SolveRequest
from repro.logic import smtlib
from repro.logic.canonical import rename_symbols
from repro.logic.printer import to_sexpr
from repro.logic.semantics import evaluate
from repro.logic.terms import And, BoolVar, Lt, Not, Offset, Or, Var
from repro.logic.traversal import (
    collect_bool_vars,
    collect_func_symbols,
    collect_pred_symbols,
    collect_vars,
)

from measure import Tally
from tracing import ClientLayer

HERE = os.path.dirname(os.path.abspath(__file__))

SEP_THOLD = 100
TRANS_BUDGET = 100_000
LIMIT_S = 20.0

#: The ten valid suite queries whose SAT search dominates (``cube``).
CUBE_NAMES = (
    "ooo_t15_5",
    "ooo_t15_6",
    "ooo_t16_7",
    "driver_s12_5",
    "driver_s16_6",
    "driver_s20_7",
    "transval_s3_i4_3",
    "transval_s3_i5_4",
    "transval_s4_i4_5",
    "transval_s5_i4_6",
)
#: How often a ``cube`` pass decides each of them.  Two worker processes
#: on two cores make one decision of each too noisy: ``queries_per_s``
#: spread by 0.15 (IQR over median) across ten seeds.
CUBE_ROUNDS = 2

#: The small and mid-size non-invariant suite formulas serve draws its
#: one-shot checks from: each is decided by in-process ``hybrid`` in well
#: under 0.2 s, so the server, not the pipeline, sets the pace, and each
#: parses and canonicalizes in under 10 ms (``cache_c4`` and up expand to
#: large s-expressions and took 18-46 ms, which made serve's CPU swing
#: with the seed's draws).
SERVE_POOL = (
    "pipeline_s2_r2_1",
    "pipeline_s3_r2_2",
    "pipeline_s4_r2_3",
    "pipeline_s5_r2_4",
    "pipeline_s4_r3_5",
    "pipeline_s6_r2_6",
    "pipeline_s8_r2_7",
    "loadstore_e3_p6_1",
    "loadstore_e5_p10_2",
    "loadstore_e7_p14_3",
    "loadstore_e9_p18_4",
    "loadstore_e12_p24_5",
    "ooo_t4_1",
    "ooo_t5_2",
    "ooo_t6_3",
    "cache_c2_1",
    "cache_c3_2",
    "driver_s3_1",
    "driver_s4_2",
    "driver_s5_3",
    "transval_s1_i3_1",
    "transval_s2_i4_2",
)

#: Serve's per-request deadline, which is also its latency limit.
SERVE_DEADLINE_S = 2.0
#: Serve's outstanding-request cap: one per core of the 2-core target.
SERVE_OUTSTANDING = 2

_STATUS_RE = re.compile(r"\(set-info\s+:status\s+(sat|unsat|unknown)\s*\)")


@dataclass
class Query:
    """One query of a stream: what is sent, and what is expected back."""

    qid: str
    formula: Any = None
    expected_valid: Optional[bool] = None
    text: str = ""

    def line(self) -> str:
        body = self.text if self.text else to_sexpr(self.formula)
        return "%s\t%s\t%s" % (self.qid, self.expected_valid, body)


def stream_bytes(queries: List[Query]) -> bytes:
    """The byte image of a query stream (same seed, same bytes)."""
    return "\n".join(q.line() for q in queries).encode("utf-8")


def _suite_benches() -> List[Any]:
    return suite(valid=True) + suite(valid=False)


def _qid(bench: Any) -> str:
    return "%s/%s" % (bench.name, "valid" if bench.expected_valid else "invalid")


def suite_queries(seed: int) -> List[Query]:
    """The 49 suite formulas and their 49 invalid mutants, seed-shuffled."""
    queries = [
        Query(_qid(b), b.formula, b.expected_valid) for b in _suite_benches()
    ]
    random.Random("suite:%d" % seed).shuffle(queries)
    return queries


def cube_queries(seed: int) -> List[Query]:
    """The ten SAT-heavy valid suite formulas, each :data:`CUBE_ROUNDS`
    times, seed-shuffled."""
    by_name = {b.name: b for b in suite(valid=True)}
    queries = [
        Query("%s/%d" % (_qid(by_name[n]), r), by_name[n].formula, True)
        for n in CUBE_NAMES
        for r in range(CUBE_ROUNDS)
    ]
    random.Random("cube:%d" % seed).shuffle(queries)
    return queries


def emit_suite_scripts(out_dir: str) -> None:
    """Write the 98 suite queries as ``:status``-annotated SMT-LIB
    scripts (the script asserts the negation: a valid formula's script is
    ``unsat``)."""
    for bench in _suite_benches():
        status = "unsat" if bench.expected_valid else "sat"
        path = os.path.join(out_dir, _qid(bench).replace("/", "_") + ".smt2")
        with open(path, "w") as fp:
            fp.write(smtlib.to_smtlib_script(bench.formula, status=status))


def smtlib_queries(seed: int, root: str, script_dir: str) -> List[Query]:
    """The SMT-LIB corpus plus the emitted suite scripts, seed-shuffled.

    ``expected_valid`` comes from the script's ``:status`` (``unsat`` is
    a valid negation); a script without one has ``None``.
    """
    corpus = os.path.join(root, "tests", "fixtures", "smtlib", "corpus")
    paths = [
        ("corpus/" + name, os.path.join(corpus, name))
        for name in sorted(os.listdir(corpus))
        if name.endswith(".smt2")
    ]
    paths += [
        ("suite/" + name[: -len(".smt2")], os.path.join(script_dir, name))
        for name in sorted(os.listdir(script_dir))
        if name.endswith(".smt2")
    ]
    queries = []
    for qid, path in paths:
        with open(path) as fp:
            text = fp.read()
        match = _STATUS_RE.search(text)
        expected = None
        if match is not None and match.group(1) != "unknown":
            expected = match.group(1) == "unsat"
        queries.append(Query(qid, None, expected, text))
    random.Random("smtlib:%d" % seed).shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# Answer checks (always outside the timed interval)
# ---------------------------------------------------------------------------


def check_verdict(
    tally: Tally,
    qid: str,
    formula: Any,
    expected_valid: Optional[bool],
    valid: Optional[bool],
    countermodel: Any,
) -> None:
    """A decided verdict must match the known answer, and an INVALID one
    must carry a countermodel that falsifies ``formula``."""
    if valid is None:
        return
    if expected_valid is not None and valid != expected_valid:
        tally.mismatch(
            "%s: answered %s, expected %s"
            % (qid, "VALID" if valid else "INVALID",
               "VALID" if expected_valid else "INVALID")
        )
        return
    if valid:
        return
    if countermodel is None:
        tally.unchecked_models += 1
        return
    try:
        falsified = not evaluate(formula, countermodel)
    except KeyError as exc:
        tally.mismatch("%s: countermodel is incomplete (%s)" % (qid, exc))
        return
    if not falsified:
        tally.mismatch("%s: countermodel does not falsify the formula" % qid)


# ---------------------------------------------------------------------------
# In-process workloads: suite, cube, smtlib
# ---------------------------------------------------------------------------


@dataclass
class Context:
    root: str
    tmp: str
    seed: int
    tracer: Any = None


class InProcessWorkload:
    """A workload whose queries this process decides itself, one at a
    time; answers are kept and checked after the timed passes."""

    limit_s = LIMIT_S
    #: Spans recorded outside this process (none: everything runs here
    #: or in forked members, whose spans are out of scope).
    spans: List[Any] = []
    client = ClientLayer()

    def setup(self, ctx: Context) -> None:
        self.ctx = ctx
        self.answers: List[Tuple[Query, Any, Optional[bool], Any]] = []
        self.queries = self.make_queries(ctx)

    def make_queries(self, ctx: Context) -> List[Query]:
        raise NotImplementedError

    def decide(self, query: Query) -> Tuple[Any, Any]:
        """Run one query; returns (the formula decided, its outcome)."""
        raise NotImplementedError

    def run_pass(self, tally: Tally, index: int) -> None:
        for query in self.queries:
            if self.ctx.tracer is not None:
                self.ctx.tracer.set_query(query.qid)
            start = time.perf_counter()
            try:
                formula, outcome = self.decide(query)
            except Exception as exc:  # a failed query is counted, not fatal
                tally.record(time.perf_counter() - start, error=type(exc).__name__)
                continue
            latency = time.perf_counter() - start
            if outcome.status is Status.ERROR:
                tally.record(latency, error="ERROR")
                continue
            tally.record(latency, decided=outcome.decided)
            self.answers.append((query, formula, outcome.valid, outcome.counterexample))

    def check(self, tally: Tally) -> None:
        for query, formula, valid, model in self.answers:
            check_verdict(tally, query.qid, formula, query.expected_valid, valid, model)

    def teardown(self, tally: Tally) -> None:
        pass


class EngineWorkload(InProcessWorkload):
    """``suite`` and ``cube``: one registry engine decides each query
    in-process, with countermodels on."""

    def __init__(
        self,
        engine: str,
        queries: Callable[[int], List[Query]],
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.engine = registry.get(engine)
        self.queries_for_seed = queries
        self.options = options or {}

    def make_queries(self, ctx: Context) -> List[Query]:
        return self.queries_for_seed(ctx.seed)

    def decide(self, query: Query) -> Tuple[Any, Any]:
        request = SolveRequest(
            formula=query.formula,
            sep_thold=SEP_THOLD,
            trans_budget=TRANS_BUDGET,
            time_limit=LIMIT_S,
            options=dict(self.options),
        )
        return query.formula, self.engine.solve(request)


class SmtlibWorkload(InProcessWorkload):
    """``smtlib``: ``parse_smtlib`` then the default parallel portfolio
    race, checked against the script's ``:status``."""

    def make_queries(self, ctx: Context) -> List[Query]:
        script_dir = os.path.join(ctx.tmp, "smtlib")
        os.makedirs(script_dir)
        # Emitted by a separate interpreter, so this process meets every
        # script cold, as a solver's front door does.
        subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), "--emit-smtlib", script_dir],
            check=True,
            timeout=120,
        )
        return smtlib_queries(ctx.seed, ctx.root, script_dir)

    def decide(self, query: Query) -> Tuple[Any, Any]:
        # Looked up on the modules at call time, where tracing wraps them.
        formula = Not(smtlib.parse_smtlib(query.text).conjunction())
        request = SolveRequest(
            formula=formula,
            sep_thold=SEP_THOLD,
            trans_budget=TRANS_BUDGET,
            time_limit=LIMIT_S,
        )
        return formula, portfolio.solve_portfolio(request)

    def check(self, tally: Tally) -> None:
        originals = {_qid(b).replace("/", "_"): b.formula for b in _suite_benches()}
        for query, parsed, valid, model in self.answers:
            original = parsed
            if query.qid.startswith("suite/"):
                original = originals[query.qid[len("suite/"):]]
            expected = query.expected_valid
            if expected is None and valid:
                # No :status: an unsat answer is checked against
                # in-process hybrid (a sat one through its model).
                expected = registry.get("hybrid").decide(parsed, sep_thold=SEP_THOLD).valid
            check_verdict(tally, query.qid, original, expected, valid, model)


# ---------------------------------------------------------------------------
# serve: the stream (the client lives in serve_client.py)
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One serve request of the stream.

    ``session`` is the stream's own key for the session an op addresses;
    the client swaps in the server's id once ``open`` has answered.
    ``live`` (session checks) is the conjunction of the live assertions,
    ``formula`` (one-shot checks) the formula as sent.
    """

    rid: str
    kind: str
    payload: Dict[str, Any]
    session: Optional[str] = None
    expected: Optional[bool] = None
    formula: Any = None
    live: List[Any] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return self.kind in ("solve", "check")


def _rename(formula: Any, tag: str) -> Any:
    """An alpha-renamed copy: same canonical key, different text."""
    return rename_symbols(
        formula,
        vars={v.name: "%s_%s" % (v.name, tag) for v in collect_vars(formula)},
        bools={b.name: "%s_%s" % (b.name, tag) for b in collect_bool_vars(formula)},
        funcs={f: "%s_%s" % (f, tag) for f in collect_func_symbols(formula)},
        preds={p: "%s_%s" % (p, tag) for p in collect_pred_symbols(formula)},
    )


class ServeStream:
    """Serve's request stream, one chunk per pass.

    A chunk is one incremental session (open, a three-link
    difference-constraint chain, a check, an unsatisfiable and a
    satisfiable push/assert/check/pop excursion, close) with a one-shot
    check after every third session op: five one-shots against three
    session checks, so the latency median is a one-shot's.  One-shots
    are drawn with Zipf-skewed popularity from :data:`SERVE_POOL` in both
    polarities; half are alpha-renamed so canonical-key cache hits can
    happen.  The first of the five races ``hybrid,lazy`` so a race has a
    loser to cancel; a fixed position keeps the pass's critical path the
    same for every seed.  Chunk ``k`` depends only on the seed and ``k``.
    """

    ONE_SHOT_EVERY = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        wanted = set(SERVE_POOL)
        self.pool = [
            b for valid in (True, False) for b in suite(valid=valid) if b.name in wanted
        ]
        # One popularity ranking for every seed, so seeds differ in their
        # draws but not in which formulas are hot; rank r (0 = most
        # popular) gets weight 1/(r+1).
        order = list(range(len(self.pool)))
        random.Random("serve-popularity").shuffle(order)
        self.weights = [0.0] * len(self.pool)
        for rank, index in enumerate(order):
            self.weights[index] = 1.0 / (rank + 1)
        self._chunks: Dict[int, List[Request]] = {}

    def chunk(self, index: int) -> List[Request]:
        if index not in self._chunks:
            self._chunks[index] = self._make_chunk(index)
        return self._chunks[index]

    def _one_shot(self, rng: random.Random, rid: str, race: bool) -> Request:
        bench = rng.choices(self.pool, weights=self.weights)[0]
        formula = bench.formula
        if rng.random() < 0.5:
            formula = _rename(formula, "a%d" % rng.randrange(1000))
        payload: Dict[str, Any] = {
            "formula": to_sexpr(formula),
            "timeout": SERVE_DEADLINE_S,
            "sep_thold": SEP_THOLD,
        }
        if race:
            payload["engine"] = "hybrid,lazy"
        return Request(rid, "solve", payload, expected=bench.expected_valid, formula=formula)

    def _session_ops(self, rng: random.Random, prefix: str, key: str) -> List[Request]:
        links = 3
        xs = [Var("%s_x%d" % (key, i)) for i in range(links + 1)]
        ops: List[Request] = []
        frames: List[List[Any]] = [[]]
        # The least x_n - x_0 the chain x_0 .. x_n forces.
        span = 0

        def op(kind: str, **payload: Any) -> Request:
            request = Request("%s-%d" % (prefix, len(ops)), kind, payload, session=key)
            ops.append(request)
            return request

        def assert_(formula: Any) -> None:
            frames[-1].append(formula)
            op("assert", formula=to_sexpr(formula))

        def check(expected_sat: bool) -> None:
            request = op("check", timeout=SERVE_DEADLINE_S)
            # A session answers satisfiability; ``expected`` keeps the
            # validity convention of one-shot checks (unsat = valid).
            request.expected = not expected_sat
            request.live = [f for frame in frames for f in frame]

        def excursion(sat: bool) -> None:
            # x_n < x_0 + m contradicts the chain exactly when m <= span.
            m = span + 1 + rng.randrange(4) if sat else rng.randrange(span + 1)
            op("push")
            frames.append([])
            assert_(Lt(xs[links], Offset(xs[0], m)))
            check(sat)
            op("pop")
            frames.pop()

        op("open", timeout=SERVE_DEADLINE_S)
        for i in range(links):
            gap = rng.randrange(3)
            assert_(
                And(
                    Lt(Offset(xs[i], gap), xs[i + 1]),
                    Or(BoolVar("%s_b%d" % (key, i)), Lt(xs[i], Offset(xs[i + 1], 4))),
                )
            )
            span += gap + 1
        check(True)
        excursion(sat=False)
        excursion(sat=True)
        op("close")
        return ops

    def _make_chunk(self, index: int) -> List[Request]:
        rng = random.Random("serve:%d:%d" % (self.seed, index))
        prefix = "c%d" % index
        session_ops = self._session_ops(rng, prefix, "s%d" % index)
        out: List[Request] = []
        shots = 0
        for position, request in enumerate(session_ops, 1):
            out.append(request)
            if position % self.ONE_SHOT_EVERY == 0 or position == len(session_ops):
                out.append(self._one_shot(rng, "%s-q%d" % (prefix, shots), shots == 0))
                shots += 1
        return out


def serve_stream_bytes(stream: ServeStream, chunks: int) -> bytes:
    """The byte image of the first ``chunks`` chunks of a serve stream."""
    lines = []
    for index in range(chunks):
        for request in stream.chunk(index):
            lines.append(
                json.dumps(
                    {
                        "rid": request.rid,
                        "kind": request.kind,
                        "session": request.session,
                        "expected": request.expected,
                        "payload": request.payload,
                    },
                    sort_keys=True,
                )
            )
    return "\n".join(lines).encode("utf-8")
