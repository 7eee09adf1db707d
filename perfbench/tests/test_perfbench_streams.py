"""Seeds: the same seed gives the same query stream, byte for byte, and
the same SAT work; serve's session chains carry the right answers."""

import os
import subprocess
import sys

import pytest

from workloads import (
    ServeStream,
    cube_queries,
    emit_suite_scripts,
    serve_stream_bytes,
    smtlib_queries,
    stream_bytes,
    suite_queries,
)

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.mark.parametrize("make", [suite_queries, cube_queries])
def test_in_process_streams_repeat_per_seed(make):
    assert stream_bytes(make(0)) == stream_bytes(make(0))
    assert stream_bytes(make(0)) != stream_bytes(make(1))


def test_smtlib_stream_repeats_per_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    emit_suite_scripts(str(first))
    emit_suite_scripts(str(second))
    a = smtlib_queries(0, ROOT, str(first))
    assert len(a) == 120
    assert stream_bytes(a) == stream_bytes(smtlib_queries(0, ROOT, str(second)))
    assert stream_bytes(a) != stream_bytes(smtlib_queries(1, ROOT, str(first)))


def test_serve_stream_repeats_per_seed():
    assert serve_stream_bytes(ServeStream(0), 3) == serve_stream_bytes(ServeStream(0), 3)
    assert serve_stream_bytes(ServeStream(0), 3) != serve_stream_bytes(ServeStream(1), 3)


_CONFLICTS = """
import sys
sys.path[:0] = [%r, %r]
from repro.engine import registry
from repro.engine.contract import SolveRequest
from tracing import Tracer, install
from workloads import LIMIT_S, SEP_THOLD, TRANS_BUDGET, suite_queries
tracer = install(Tracer())
engine = registry.get("hybrid")
for query in suite_queries(int(sys.argv[1]))[:40]:
    engine.solve(SolveRequest(formula=query.formula, sep_thold=SEP_THOLD,
                              trans_budget=TRANS_BUDGET, time_limit=LIMIT_S))
print(sum(s.counters.get("conflicts", 0) for s in tracer.spans if s.name == "sat.solver"))
""" % (os.path.join(ROOT, "src"), BENCH)


def _conflicts(seed):
    out = subprocess.run(
        [sys.executable, "-c", _CONFLICTS, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return int(out.stdout.strip())


def test_same_seed_same_sat_work_in_fresh_interpreters():
    assert _conflicts(3) == _conflicts(3)


def test_session_chains_have_the_answers_the_stream_expects():
    """Replay chunk 0's session through an in-process Session: every
    check must answer what the stream records as known."""
    from repro.engine.session import Session
    from repro.logic.parser import parse_formula

    session = None
    checks = 0
    for request in ServeStream(5).chunk(0):
        if request.session is None:
            continue
        if request.kind == "open":
            session = Session(engine="hybrid")
        elif request.kind == "assert":
            session.assert_formula(parse_formula(request.payload["formula"]))
        elif request.kind == "push":
            session.push()
        elif request.kind == "pop":
            session.pop()
        elif request.kind == "check":
            result = session.check_sat()
            assert result.is_unsat == request.expected, request.rid
            assert len(request.live) == len(session.assertions())
            checks += 1
    assert checks == 3
