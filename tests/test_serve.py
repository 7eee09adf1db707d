"""Concurrency and protocol tests for ``repro serve``.

Component-level tests drive the reader/worker internals directly with
deterministic state (a pre-filled queue for backpressure, a back-dated
receipt time for queue-wait deadlines); integration tests run the whole
loop in-process over StringIO; end-to-end tests drive the real CLI in a
subprocess, including graceful SIGTERM drain.
"""

import contextlib
import io
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

from repro.benchgen import benchmark_by_name
from repro.engine import portfolio as portfolio_mod
from repro.engine.contract import SolveRequest
from repro.engine.portfolio import solve_portfolio
from repro.service.cache import ResultCache
from repro.service.server import (
    ServeConfig,
    _reader,
    _ServerState,
    _solve_one,
    run_server,
)

VALID_F = "(=> (= x y) (= (f x) (f y)))"
VALID_F_RENAMED = "(=> (= a b) (= (h a) (h b)))"
INVALID_F = "(= (f x) (f y))"
#: Valid, but brute-force enumeration over two nested function tables
#: takes tens of seconds — the anvil for hard-deadline tests.
SLOW_F = "(=> (and (= a b) (= b c)) (= (f (g a)) (f (g c))))"


def _state(config=None, queue_size=16, cache=True):
    config = config or ServeConfig(install_signal_handlers=False, fork=False)
    return _ServerState(
        config=config,
        out=io.StringIO(),
        cache=ResultCache() if cache else None,
        jobs=queue.Queue(maxsize=queue_size),
    )


def _responses(state):
    return [json.loads(line) for line in state.out.getvalue().splitlines()]


def _run_inline(requests, config=None):
    lines = [
        r if isinstance(r, str) else json.dumps(r) for r in requests
    ]
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    rc = run_server(
        config
        or ServeConfig(
            workers=2, fork=False, install_signal_handlers=False
        ),
        stdin=stdin,
        stdout=stdout,
    )
    return rc, [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestBackpressure:
    def test_full_queue_rejects_instead_of_buffering(self):
        state = _state(queue_size=1)
        state.jobs.put_nowait(({"id": 0}, time.monotonic()))  # occupy
        lines = "\n".join(
            json.dumps({"id": i, "formula": VALID_F}) for i in (1, 2, 3)
        )
        _reader(state, io.StringIO(lines + "\n"))
        responses = _responses(state)
        assert [r["id"] for r in responses] == [1, 2, 3]
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["kind"] == "overloaded"
        assert state.rejected == 3
        # The occupied slot was untouched: rejected requests never queue.
        assert state.jobs.qsize() == 1

    def test_shutdown_rejects_new_requests(self):
        state = _state()
        state.stop.set()
        _reader(
            state,
            io.StringIO(json.dumps({"id": 9, "formula": VALID_F}) + "\n"),
        )
        (response,) = _responses(state)
        assert response["id"] == 9
        assert response["error"]["kind"] == "shutdown"
        assert state.jobs.qsize() == 0

    def test_reader_parse_and_shape_errors(self):
        state = _state()
        _reader(state, io.StringIO('{"broken\n[1, 2]\n'))
        kinds = [r["error"]["kind"] for r in _responses(state)]
        assert kinds == ["parse", "bad-request"]


class TestDeadlines:
    def test_deadline_expired_while_queued(self):
        state = _state()
        response = _solve_one(
            state,
            {"id": 4, "formula": VALID_F, "timeout": 0.05},
            received=time.monotonic() - 10.0,
        )
        assert response["ok"] is False
        assert response["error"]["kind"] == "deadline"
        assert "queued" in response["error"]["message"]
        assert response["wall_seconds"] >= 0.05

    def test_hard_deadline_kills_stuck_solve(self):
        # fork=True runs the solve as a raceable child process, so the
        # deadline interrupts brute mid-enumeration (in-process it would
        # run for tens of seconds; see SLOW_F).
        state = _state(
            config=ServeConfig(install_signal_handlers=False, fork=True)
        )
        started = time.monotonic()
        response = _solve_one(
            state,
            {
                "id": 5,
                "formula": SLOW_F,
                "engine": "brute",
                "timeout": 1.0,
                "options": {"limit": 10**9},
            },
            received=started,
        )
        elapsed = time.monotonic() - started
        assert response["ok"] is False
        assert response["error"]["kind"] == "deadline"
        assert elapsed < 10.0


class TestRequestValidation:
    def test_unknown_engine(self):
        state = _state()
        response = _solve_one(
            state,
            {"id": 1, "formula": VALID_F, "engine": "nosuch"},
            received=time.monotonic(),
        )
        assert response["error"]["kind"] == "bad-request"
        assert "nosuch" in response["error"]["message"]

    def test_missing_formula(self):
        state = _state()
        response = _solve_one(
            state, {"id": 2}, received=time.monotonic()
        )
        assert response["error"]["kind"] == "bad-request"

    def test_unparsable_formula(self):
        state = _state()
        response = _solve_one(
            state,
            {"id": 3, "formula": "(= x"},
            received=time.monotonic(),
        )
        assert response["error"]["kind"] == "parse"

    def test_bad_timeout(self):
        state = _state()
        response = _solve_one(
            state,
            {"id": 4, "formula": VALID_F, "timeout": -1},
            received=time.monotonic(),
        )
        assert response["error"]["kind"] == "bad-request"


class TestInlineServe:
    def test_verdicts_cache_and_countermodels(self):
        rc, responses = _run_inline(
            [
                {"id": 1, "formula": VALID_F},
                {"id": 2, "formula": INVALID_F},
            ]
        )
        assert rc == 0
        assert responses[0]["event"] == "ready"
        assert responses[-1]["event"] == "bye"
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["ok"] and by_id[1]["status"] == "VALID"
        assert by_id[2]["ok"] and by_id[2]["status"] == "INVALID"
        model = by_id[2]["countermodel"]
        assert model["funcs"]["f"]  # table present and JSON-shaped
        assert responses[-1]["served"] == 2

    def test_isomorphic_requests_share_cache_entry(self):
        # Single worker: deterministic order, so the renamed formula is
        # always the warm request.
        rc, responses = _run_inline(
            [
                {"id": 1, "formula": VALID_F},
                {"id": 2, "formula": VALID_F_RENAMED},
            ],
            config=ServeConfig(
                workers=1, fork=False, install_signal_handlers=False
            ),
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["status"] == by_id[2]["status"] == "VALID"
        assert by_id[1]["cache"]["misses"] == 1
        assert by_id[2]["cache"]["hits_memory"] == 1
        assert responses[-1]["cache"]["hits_memory"] == 1

    def test_no_cache_flag(self):
        rc, responses = _run_inline(
            [{"id": 1, "formula": VALID_F}],
            config=ServeConfig(
                workers=1,
                fork=False,
                use_cache=False,
                install_signal_handlers=False,
            ),
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["status"] == "VALID"
        assert "cache" not in by_id[1]
        assert "cache" not in responses[-1]


class TestSessions:
    """Stateful session ids on the wire protocol."""

    def test_session_lifecycle(self):
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open", "engine": "hybrid"},
                {
                    "id": 2,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< x y)",
                },
                {"id": 3, "kind": "check", "session": "s1"},
                {"id": 4, "kind": "push", "session": "s1"},
                {
                    "id": 5,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< y x)",
                },
                {"id": 6, "kind": "check", "session": "s1"},
                {"id": 7, "kind": "pop", "session": "s1"},
                {"id": 8, "kind": "check", "session": "s1"},
                {"id": 9, "kind": "close", "session": "s1"},
            ]
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["ok"] and by_id[1]["session"] == "s1"
        assert by_id[2]["index"] == 0 and by_id[2]["depth"] == 0
        assert by_id[3]["status"] == "sat"
        assert by_id[3]["model"]["vars"]["x"] < by_id[3]["model"]["vars"]["y"]
        assert by_id[4]["depth"] == 1
        assert by_id[6]["status"] == "unsat"
        assert sorted(by_id[6]["core"]) == ["(< x y)", "(< y x)"]
        assert by_id[7]["depth"] == 0
        assert by_id[8]["status"] == "sat"
        assert by_id[9]["ok"] and by_id[9]["checks"] == 3
        # An explicitly closed session does not count as evicted.
        assert responses[-1]["sessions"] == {"opened": 1, "evicted": 0}

    def test_interleaved_multi_client_sessions(self):
        # Two independent sessions interleaved on one wire: ops stay
        # ordered per session and the states never bleed together.
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open"},
                {"id": 2, "kind": "open"},
                {
                    "id": 3,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< x y)",
                },
                {
                    "id": 4,
                    "kind": "assert",
                    "session": "s2",
                    "formula": "(< x y)",
                },
                {
                    "id": 5,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< y x)",
                },
                {"id": 6, "kind": "check", "session": "s1"},
                {"id": 7, "kind": "check", "session": "s2"},
            ],
            config=ServeConfig(
                workers=4, fork=False, install_signal_handlers=False
            ),
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[6]["status"] == "unsat"
        assert by_id[7]["status"] == "sat"
        assert responses[-1]["sessions"]["opened"] == 2

    def test_unknown_session_id_error_kind(self):
        rc, responses = _run_inline(
            [{"id": 1, "kind": "check", "session": "nosuch"}]
        )
        assert rc == 0
        (response,) = [r for r in responses if "id" in r]
        assert response["ok"] is False
        assert response["error"]["kind"] == "unknown-session-id"

    def test_pop_below_zero_error_kind(self):
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open"},
                {"id": 2, "kind": "push", "session": "s1"},
                {"id": 3, "kind": "pop", "session": "s1"},
                {"id": 4, "kind": "pop", "session": "s1"},
                {"id": 5, "kind": "check", "session": "s1"},
            ]
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[3]["ok"] and by_id[3]["depth"] == 0
        assert by_id[4]["ok"] is False
        assert by_id[4]["error"]["kind"] == "pop-below-zero"
        # The session survives the failed pop.
        assert by_id[5]["status"] == "sat"

    def test_ops_after_close_rejected(self):
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open"},
                {"id": 2, "kind": "close", "session": "s1"},
                {"id": 3, "kind": "push", "session": "s1"},
            ]
        )
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[2]["ok"] is True
        assert by_id[3]["ok"] is False
        assert by_id[3]["error"]["kind"] == "unknown-session-id"

    def test_session_request_validation(self):
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open", "engine": "nosuch"},
                {"id": 2, "kind": "open", "timeout": -1},
                {"id": 3, "kind": "open"},
                {"id": 4, "kind": "assert", "session": "s1"},
                {
                    "id": 5,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(= x",
                },
                {"id": 6, "kind": "pop", "session": "s1", "levels": "x"},
                {"id": 7, "kind": "wibble"},
            ]
        )
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["error"]["kind"] == "bad-request"
        assert by_id[2]["error"]["kind"] == "bad-request"
        assert by_id[3]["ok"] is True
        assert by_id[4]["error"]["kind"] == "bad-request"
        assert by_id[5]["error"]["kind"] == "parse"
        assert by_id[6]["error"]["kind"] == "bad-request"
        assert by_id[7]["error"]["kind"] == "bad-request"

    def test_check_deadline_expired_while_queued(self):
        # Drive the turn path directly with a back-dated receipt time.
        from repro.service.server import (
            _enqueue_session_op,
            _open_session,
            _session_turn,
        )

        state = _state()
        opened = _open_session(state, {"id": 1, "kind": "open"})
        sid = opened["session"]
        _enqueue_session_op(
            state,
            {
                "id": 2,
                "kind": "check",
                "session": sid,
                "timeout": 0.05,
            },
            time.monotonic() - 10.0,
        )
        _session_turn(state, sid)
        responses = _responses(state)
        check = next(r for r in responses if r.get("id") == 2)
        assert check["ok"] is False
        assert check["error"]["kind"] == "deadline"
        assert "queued" in check["error"]["message"]

    def test_session_checks_share_server_cache_with_one_shot(self):
        # A session's UNSAT check stores a validity entry that a later
        # one-shot request for the negated conjunction hits directly.
        rc, responses = _run_inline(
            [
                {"id": 1, "kind": "open", "engine": "hybrid"},
                {
                    "id": 2,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< x y)",
                },
                {
                    "id": 3,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< y x)",
                },
                {"id": 4, "kind": "check", "session": "s1"},
                {
                    "id": 5,
                    "formula": "(not (and (< x y) (< y x)))",
                    "engine": "hybrid",
                },
            ],
            config=ServeConfig(
                workers=1, fork=False, install_signal_handlers=False
            ),
        )
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[4]["status"] == "unsat"
        assert by_id[5]["status"] == "VALID"
        assert by_id[5]["cache"]["hits_memory"] == 1


@contextlib.contextmanager
def _serve(*extra_args):
    """``repro serve`` in a subprocess, in its default configuration (fork
    on) unless ``extra_args`` say otherwise.

    The server runs in its own session, and the whole process group is
    killed on the way out: a hung race member outlives a killed server.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve"] + list(extra_args),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            yield proc
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _send(proc, request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()


class _Lines:
    """The server's stdout, one parsed response at a time, each awaited
    for at most ``within`` seconds (a reader thread does the blocking)."""

    def __init__(self, stream):
        self._lines = queue.Queue()
        threading.Thread(
            target=self._pump, args=(stream,), daemon=True
        ).start()

    def _pump(self, stream):
        try:
            for line in stream:
                self._lines.put(line)
        except (OSError, ValueError):  # the harness closed the pipe
            pass
        self._lines.put(None)

    def next(self, within):
        try:
            line = self._lines.get(timeout=within)
        except queue.Empty:
            raise AssertionError(
                "serve answered nothing within %.1f s" % within
            ) from None
        assert line is not None, "serve closed its stdout"
        return json.loads(line)


def _group_is_empty(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


class TestSubprocessEndToEnd:
    def test_smoke_over_real_pipes(self):
        with _serve("--workers", "2") as proc:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            requests = [
                {"id": 1, "formula": VALID_F},
                {"id": 2, "formula": VALID_F_RENAMED},
                {"id": 3, "formula": INVALID_F},
                {"id": 4, "formula": "(= x"},
            ]
            for request in requests:
                proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.close()
            responses = [
                json.loads(line) for line in proc.stdout.readlines()
            ]
            assert proc.wait(timeout=60) == 0
        assert responses[-1]["event"] == "bye"
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[1]["status"] == "VALID"
        assert by_id[2]["status"] == "VALID"
        assert by_id[3]["status"] == "INVALID"
        assert by_id[4]["error"]["kind"] == "parse"
        assert responses[-1]["served"] == 4

    def test_sigterm_drains_in_flight_requests(self):
        with _serve("--workers", "1") as proc:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            proc.stdin.write(json.dumps({"id": 1, "formula": VALID_F}) + "\n")
            proc.stdin.write(
                json.dumps({"id": 2, "formula": INVALID_F}) + "\n"
            )
            proc.stdin.flush()
            # Give the reader a moment to accept both requests, then ask
            # for shutdown while they are queued/in flight.
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            responses = [
                json.loads(line) for line in proc.stdout.readlines()
            ]
            rc = proc.wait(timeout=60)
        assert rc == 0
        assert responses[-1]["event"] == "bye"
        by_id = {r["id"]: r for r in responses if "id" in r}
        # Both accepted requests were answered despite the signal.
        assert by_id[1]["status"] == "VALID"
        assert by_id[2]["status"] == "INVALID"

    def test_sigterm_drains_and_evicts_open_sessions(self):
        with _serve("--workers", "1") as proc:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            proc.stdin.write(json.dumps({"id": 1, "kind": "open"}) + "\n")
            proc.stdin.flush()
            opened = json.loads(proc.stdout.readline())
            assert opened["ok"] and opened["session"] == "s1"
            requests = [
                {
                    "id": 2,
                    "kind": "assert",
                    "session": "s1",
                    "formula": "(< x y)",
                },
                {"id": 3, "kind": "check", "session": "s1"},
            ]
            for request in requests:
                proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            time.sleep(0.3)
            # No close: the still-open session must be evicted on drain,
            # after its accepted ops are answered.
            proc.send_signal(signal.SIGTERM)
            responses = [
                json.loads(line) for line in proc.stdout.readlines()
            ]
            rc = proc.wait(timeout=60)
        assert rc == 0
        by_id = {r["id"]: r for r in responses if "id" in r}
        assert by_id[2]["ok"] is True
        assert by_id[3]["status"] == "sat"
        bye = responses[-1]
        assert bye["event"] == "bye"
        assert bye["sessions"] == {"opened": 1, "evicted": 1}

    def test_cache_dir_persists_across_server_runs(self, tmp_path):
        disk = str(tmp_path / "cache")
        for expect_tier in ("misses", "hits_disk"):
            with _serve("--workers", "1", "--cache-dir", disk) as proc:
                json.loads(proc.stdout.readline())  # ready
                proc.stdin.write(
                    json.dumps({"id": 1, "formula": VALID_F}) + "\n"
                )
                proc.stdin.close()
                responses = [
                    json.loads(line) for line in proc.stdout.readlines()
                ]
                assert proc.wait(timeout=60) == 0
            by_id = {r["id"]: r for r in responses if "id" in r}
            assert by_id[1]["status"] == "VALID"
            assert by_id[1]["cache"][expect_tier] == 1


class TestForkModeEndToEnd:
    """The default configuration (fork on) over a stdin the client keeps
    open, as a verifier streaming queries does: a forked member must not
    block on the stdin the reader thread is waiting on."""

    def test_one_shot_decides_with_stdin_open(self):
        with _serve("--timeout", "5") as proc:
            lines = _Lines(proc.stdout)
            assert lines.next(within=60)["event"] == "ready"
            _send(proc, {"id": 1, "formula": "(= x x)"})
            response = lines.next(within=2.0)
        assert response["id"] == 1
        assert response["status"] == "VALID"

    def test_killed_member_spares_the_next_request(self):
        with _serve("--timeout", "5") as proc:
            lines = _Lines(proc.stdout)
            assert lines.next(within=60)["event"] == "ready"
            sent = time.monotonic()
            _send(
                proc,
                {
                    "id": 1,
                    "formula": SLOW_F,
                    "engine": "brute",
                    "timeout": 1,
                    "options": {"limit": 10**9},
                },
            )
            _send(proc, {"id": 2, "formula": VALID_F})
            answered = {}
            for _ in range(2):
                response = lines.next(within=4.0)
                answered[response["id"]] = (response, time.monotonic() - sent)
            proc.stdin.close()
            assert lines.next(within=10)["event"] == "bye"
            assert proc.wait(timeout=10) == 0
            # The server reaped every member it forked before it exited.
            assert _group_is_empty(proc.pid)
        slow, slow_s = answered[1]
        quick, quick_s = answered[2]
        assert slow["error"]["kind"] == "deadline"
        assert slow_s < 4.0
        assert quick["status"] == "VALID"
        assert quick_s < 2.0

    def test_forked_one_shots_interleave_with_a_session(self):
        # Distinct one-shots, each its own forked race (no cache), beside
        # one session's ops, two requests outstanding: no response line
        # may be torn, lost, doubled or wrong.
        one_shots = []
        for n in range(1, 31):
            chain = " ".join("(< x%d x%d)" % (i, i + 1) for i in range(n))
            one_shots.append(
                ("(=> (and %s) (< x0 x%d))" % (chain, n), "VALID")
            )
            one_shots.append(
                ("(=> (and %s) (< x%d x0))" % (chain, n), "INVALID")
            )
        cycle = [
            ({"kind": "push"}, {"depth": 1}),
            ({"kind": "assert", "formula": "(< a b)"}, {"ok": True}),
            ({"kind": "check"}, {"status": "sat"}),
            ({"kind": "assert", "formula": "(< b a)"}, {"ok": True}),
            ({"kind": "check"}, {"status": "unsat"}),
            ({"kind": "pop"}, {"depth": 0}),
        ]
        with _serve("--no-cache", "--timeout", "5") as proc:
            lines = _Lines(proc.stdout)
            assert lines.next(within=60)["event"] == "ready"
            _send(proc, {"id": 0, "kind": "open"})
            sid = lines.next(within=10)["session"]
            requests = []
            for i, (formula, status) in enumerate(one_shots):
                requests.append(({"formula": formula}, {"status": status}))
                op, expect = cycle[i % len(cycle)]
                requests.append((dict(op, session=sid), expect))
            expected = {}
            unsent = iter(enumerate(requests, start=1))

            def send_next():
                for rid, (request, expect) in unsent:
                    expected[rid] = expect
                    _send(proc, dict(request, id=rid))
                    return

            send_next()
            send_next()
            answered = set()
            while len(answered) < len(expected):
                response = lines.next(within=30)
                rid = response.get("id")
                assert rid in expected and rid not in answered, response
                answered.add(rid)
                assert response["ok"], response
                for key, value in expected[rid].items():
                    assert response[key] == value, response
                send_next()
            proc.stdin.close()
            bye = lines.next(within=30)
            assert proc.wait(timeout=30) == 0
        assert len(answered) == len(requests)
        assert bye["event"] == "bye"
        assert bye["served"] == len(requests) + 1


class TestRaceCancellation:
    def test_serve_style_sigterm_handler_does_not_stall_cancellation(
        self, monkeypatch
    ):
        # Like serve's drain-flag handler, this one swallows SIGTERM.
        # Race members inherit it and must still die at once when the
        # loser is cancelled.  Two slots, so the loser runs beside hybrid;
        # svc first, because a race led by an eager member would first
        # try hybrid in-process and fork nothing.
        monkeypatch.setattr(portfolio_mod, "_usable_cpus", lambda: 2)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            started = time.perf_counter()
            outcome = solve_portfolio(
                SolveRequest(formula=benchmark_by_name("cache_c4_3").formula),
                engines=["svc", "hybrid"],
            )
            elapsed = time.perf_counter() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        race = next(r for r in outcome.stages if r.name == "race")
        assert outcome.winner == "hybrid"
        assert race.counters["cancelled"] == 1
        assert elapsed < 1.0
