"""The ``repro serve`` loop: line-delimited JSON over stdin/stdout.

One JSON object per input line is one validity request; one JSON object
per output line is its response (see ``docs/serve-protocol.md`` for the
schema).  The loop is a bounded pipeline:

* a *reader* thread parses stdin lines and enqueues them on a bounded
  queue — when the queue is full the request is **rejected immediately**
  with an ``overloaded`` error instead of buffering unboundedly
  (backpressure is the client's signal to slow down);
* ``workers`` worker threads dequeue requests and solve them, each under
  its own deadline measured from *receipt* (queue wait counts — a
  request that waited past its deadline fails fast without solving).
  With forking enabled (the default) the solve runs as a single-member
  parallel portfolio race, so the deadline is *hard*: the child process
  is killed when time is up;
* responses are serialized by a writer lock, so lines never interleave.

``SIGTERM``/``SIGINT`` trigger graceful shutdown: no new requests are
accepted (late arrivals get a ``shutdown`` error), everything already
accepted is drained and answered, a ``bye`` event is emitted, and the
process exits 0.

Stateful **sessions** ride the same wire: ``{"kind": "open"}`` creates an
incremental :class:`repro.engine.session.Session` and returns its id;
``assert`` / ``push`` / ``pop`` / ``check`` / ``close`` requests carry
``"session": <id>``.  Ops for one session are answered strictly in
arrival order (each session holds a FIFO of pending ops drained by one
worker at a time), while different sessions interleave freely across
workers.  Checks honor per-session deadlines (an ``open``-time default,
overridable per check) measured from receipt, and the graceful drain
evicts every open session after answering its accepted ops.

All solves go through the shared result cache
(:mod:`repro.service.cache`) unless disabled, so repeated requests, and
requests that rename another's symbols consistently, are answered from
memory within one server lifetime.  A client that closes its end of the
pipes stops the server: the failed write drops every later response,
and the accepted requests drain as after ``SIGTERM``.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple

from ..encodings.hybrid import DEFAULT_SEP_THOLD
from ..engine import registry
from ..engine.contract import SolveOutcome, SolveRequest
from ..engine.portfolio import solve_portfolio
from ..engine.session import UNKNOWN as SESSION_UNKNOWN
from ..engine.session import Session, SessionError
from ..logic.parser import ParseError, parse_formula
from ..logic.printer import to_sexpr
from .cache import (
    ResultCache,
    config_fingerprint,
    interp_to_jsonable,
    solve_cached,
)

__all__ = ["ServeConfig", "run_server"]

#: Poll granularity for worker dequeue / drain waits.
_TICK = 0.05

#: Request kinds that address a session created with ``open``.
_SESSION_OP_KINDS = ("assert", "push", "pop", "check", "close")


@dataclass
class ServeConfig:
    """Knobs for :func:`run_server` (mirrors the ``repro serve`` flags)."""

    workers: int = 2
    queue_size: int = 16
    engine: str = "hybrid"
    default_timeout: Optional[float] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None
    #: Solve via a forked single-member portfolio race so deadlines can
    #: kill a stuck solve.  ``False`` solves in-process (deterministic,
    #: fork-free) but can only observe a deadline between engines.
    fork: bool = True
    #: Install SIGTERM/SIGINT handlers (only possible from the main
    #: thread; tests driving run_server from a helper thread disable it).
    install_signal_handlers: bool = True


@dataclass
class _ServeSession:
    """One wire-protocol session: the engine-layer Session plus the
    per-session FIFO that keeps its ops ordered across workers."""

    sid: str
    session: Session
    default_timeout: Optional[float] = None
    pending: "collections.deque[Tuple[Dict[str, Any], float]]" = field(
        default_factory=collections.deque
    )
    busy: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _ServerState:
    config: ServeConfig
    out: IO[str]
    cache: Optional[ResultCache]
    jobs: "queue.Queue[Tuple[Dict[str, Any], float]]"
    stop: threading.Event = field(default_factory=threading.Event)
    eof: threading.Event = field(default_factory=threading.Event)
    write_lock: threading.Lock = field(default_factory=threading.Lock)
    counter_lock: threading.Lock = field(default_factory=threading.Lock)
    served: int = 0
    rejected: int = 0
    #: Set once a write to ``out`` failed: the client is gone, so every
    #: later write is dropped.
    out_lost: bool = False
    sessions: Dict[str, _ServeSession] = field(default_factory=dict)
    sessions_lock: threading.Lock = field(default_factory=threading.Lock)
    sessions_opened: int = 0
    sessions_evicted: int = 0

    def write(self, obj: Dict[str, Any]) -> None:
        """Write one response line; a client that has gone stops the server.

        A closed pipe (``BrokenPipeError``) or a closed stream makes the
        server stop accepting requests and drop every later write, so
        workers still finish their jobs and the drain completes.
        """
        line = json.dumps(obj, sort_keys=True)
        with self.write_lock:
            if self.out_lost:
                return
            try:
                self.out.write(line + "\n")
                self.out.flush()
            except (OSError, ValueError):
                self.out_lost = True
                self.stop.set()
                self._detach_stdout()

    def _detach_stdout(self) -> None:
        """Point fd 1 at ``os.devnull`` when ``out`` is the process's
        stdout, so the interpreter's flush at exit does not fail again
        on what the failed write left buffered."""
        if self.out is not sys.stdout:
            return
        try:
            fd = self.out.fileno()
        except (OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)

    def bump(self, attr: str, delta: int = 1) -> None:
        with self.counter_lock:
            setattr(self, attr, getattr(self, attr) + delta)


def _error_response(
    rid: Any, kind: str, message: str, **extra: Any
) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "id": rid,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }
    response.update(extra)
    return response


def _reader(state: _ServerState, inp: IO[str]) -> None:
    """Parse stdin lines into the bounded queue; reject when full.

    Session requests are routed here as well: ``open`` is handled inline
    (cheap, and it must answer with the new id before any op can target
    it), other session ops are appended to their session's FIFO so they
    run in arrival order.
    """
    for line in inp:
        line = line.strip()
        if not line:
            continue
        if state.stop.is_set():
            rid = None
            try:
                rid = json.loads(line).get("id")
            except (ValueError, AttributeError):
                pass
            state.write(
                _error_response(rid, "shutdown", "server is shutting down")
            )
            state.bump("rejected")
            continue
        try:
            payload = json.loads(line)
        except ValueError as exc:
            state.write(
                _error_response(None, "parse", "invalid JSON: %s" % exc)
            )
            state.bump("rejected")
            continue
        if not isinstance(payload, dict):
            state.write(
                _error_response(
                    None, "bad-request", "request must be a JSON object"
                )
            )
            state.bump("rejected")
            continue
        kind = payload.get("kind")
        if kind == "open":
            state.write(_open_session(state, payload))
            state.bump("served")
            continue
        if kind in _SESSION_OP_KINDS:
            _enqueue_session_op(state, payload, time.monotonic())
            continue
        if kind not in (None, "solve"):
            state.write(
                _error_response(
                    payload.get("id"),
                    "bad-request",
                    "unknown request kind %r; expected solve, open, %s"
                    % (kind, ", ".join(_SESSION_OP_KINDS)),
                )
            )
            state.bump("rejected")
            continue
        try:
            state.jobs.put_nowait((payload, time.monotonic()))
        except queue.Full:
            state.write(
                _error_response(
                    payload.get("id"),
                    "overloaded",
                    "queue full (%d pending); retry later"
                    % state.jobs.maxsize,
                )
            )
            state.bump("rejected")
    state.eof.set()


def _open_session(
    state: _ServerState, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Create a session; answered inline by the reader."""
    rid = payload.get("id")
    engine = payload.get("engine", state.config.engine)
    if not isinstance(engine, str) or not engine.strip():
        return _error_response(
            rid, "bad-request", "'engine' must be an engine name"
        )
    timeout = payload.get("timeout", state.config.default_timeout)
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            return _error_response(
                rid,
                "bad-request",
                "'timeout' must be a positive number of seconds",
            )
        timeout = float(timeout)
    try:
        session = Session(
            engine=engine.strip(),
            cache=state.cache,
            time_limit=timeout,
            want_model=bool(payload.get("want_countermodel", True)),
        )
    except ValueError as exc:
        return _error_response(rid, "bad-request", str(exc))
    with state.sessions_lock:
        state.sessions_opened += 1
        sid = "s%d" % state.sessions_opened
        state.sessions[sid] = _ServeSession(
            sid=sid, session=session, default_timeout=timeout
        )
    return {"id": rid, "ok": True, "session": sid, "engine": engine.strip()}


def _enqueue_session_op(
    state: _ServerState, payload: Dict[str, Any], received: float
) -> None:
    """Append one op to its session's FIFO and arm a drain turn."""
    rid = payload.get("id")
    sid = payload.get("session")
    with state.sessions_lock:
        sess = state.sessions.get(sid) if isinstance(sid, str) else None
    if sess is None:
        state.write(
            _error_response(
                rid,
                "unknown-session-id",
                "unknown session id %r (open a session first)" % (sid,),
            )
        )
        state.bump("rejected")
        return
    with sess.lock:
        if len(sess.pending) >= state.jobs.maxsize:
            state.write(
                _error_response(
                    rid,
                    "overloaded",
                    "session %s has %d pending op(s); retry later"
                    % (sess.sid, len(sess.pending)),
                )
            )
            state.bump("rejected")
            return
        sess.pending.append((payload, received))
        if sess.busy:
            return
        sess.busy = True
    try:
        state.jobs.put_nowait(({"_session_turn": sess.sid}, received))
    except queue.Full:
        with sess.lock:
            sess.pending.pop()
            sess.busy = False
        state.write(
            _error_response(
                rid,
                "overloaded",
                "queue full (%d pending); retry later" % state.jobs.maxsize,
            )
        )
        state.bump("rejected")


def _parse_request(
    payload: Dict[str, Any], config: ServeConfig
) -> Tuple[SolveRequest, List[str], Optional[float]]:
    """Validate one request payload; raises ValueError with a message."""
    formula_text = payload.get("formula")
    if not isinstance(formula_text, str) or not formula_text.strip():
        raise ValueError("'formula' must be a non-empty s-expression string")
    formula = parse_formula(formula_text)

    spec = payload.get("engine", config.engine)
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("'engine' must be an engine name")
    members = [name.strip() for name in spec.split(",") if name.strip()]
    known = registry.list_engines()
    for name in members:
        if name not in known:
            raise ValueError(
                "unknown engine %r; registered: %s" % (name, ", ".join(known))
            )

    timeout = payload.get("timeout", config.default_timeout)
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ValueError("'timeout' must be a positive number of seconds")
        timeout = float(timeout)

    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise ValueError("'options' must be a JSON object")

    request = SolveRequest(
        formula=formula,
        want_countermodel=bool(payload.get("want_countermodel", True)),
        time_limit=timeout,
        sep_thold=int(payload.get("sep_thold", DEFAULT_SEP_THOLD)),
        preprocess=bool(payload.get("preprocess", True)),
        options=dict(options),
    )
    return request, members, timeout


def _cache_section(outcome: SolveOutcome) -> Optional[Dict[str, int]]:
    stats = outcome.stats.cache
    if stats is None:
        return None
    return {
        "hits_memory": stats.hits_memory,
        "hits_disk": stats.hits_disk,
        "misses": stats.misses,
        "stores": stats.stores,
    }


def _solve_one(
    state: _ServerState,
    payload: Dict[str, Any],
    received: float,
) -> Dict[str, Any]:
    rid = payload.get("id")
    config = state.config
    try:
        request, members, timeout = _parse_request(payload, config)
    except ParseError as exc:
        return _error_response(rid, "parse", str(exc))
    except ValueError as exc:
        return _error_response(rid, "bad-request", str(exc))

    started = time.monotonic()
    if timeout is not None:
        remaining = timeout - (started - received)
        if remaining <= 0:
            return _error_response(
                rid,
                "deadline",
                "deadline of %.3fs expired while queued" % timeout,
                wall_seconds=round(started - received, 6),
            )
    else:
        remaining = None

    def solver(req: SolveRequest) -> SolveOutcome:
        return solve_portfolio(
            req,
            engines=members,
            parallel=config.fork,
            deadline=remaining,
        )

    try:
        if state.cache is not None:
            fingerprint = config_fingerprint(",".join(members), request)
            outcome = solve_cached(
                request,
                solver,
                state.cache,
                fingerprint,
                engine_label="serve",
            )
        else:
            outcome = solver(request)
    except Exception as exc:  # a request must never kill a worker
        return _error_response(
            rid, "internal", "%s: %s" % (type(exc).__name__, exc)
        )

    elapsed = time.monotonic() - received
    if (
        timeout is not None
        and not outcome.decided
        and elapsed >= timeout
    ):
        return _error_response(
            rid,
            "deadline",
            "deadline of %.3fs expired during solve" % timeout,
            wall_seconds=round(elapsed, 6),
        )

    response: Dict[str, Any] = {
        "id": rid,
        "ok": True,
        "status": str(outcome.status),
        "valid": outcome.valid,
        "engine": ",".join(members),
        "winner": outcome.winner,
        "wall_seconds": round(elapsed, 6),
        "detail": outcome.detail,
    }
    cache_section = _cache_section(outcome)
    if cache_section is not None:
        response["cache"] = cache_section
    if outcome.counterexample is not None and request.want_countermodel:
        response["countermodel"] = interp_to_jsonable(outcome.counterexample)
    return response


def _session_check(
    state: _ServerState,
    sess: _ServeSession,
    payload: Dict[str, Any],
    received: float,
) -> Dict[str, Any]:
    rid = payload.get("id")
    timeout = payload.get("timeout", sess.default_timeout)
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise ValueError(
                "'timeout' must be a positive number of seconds"
            )
        timeout = float(timeout)
    started = time.monotonic()
    remaining: Optional[float] = None
    if timeout is not None:
        remaining = timeout - (started - received)
        if remaining <= 0:
            return _error_response(
                rid,
                "deadline",
                "deadline of %.3fs expired while queued" % timeout,
                session=sess.sid,
                wall_seconds=round(started - received, 6),
            )
    result = sess.session.check_sat(time_limit=remaining)
    elapsed = time.monotonic() - received
    if (
        timeout is not None
        and result.status == SESSION_UNKNOWN
        and elapsed >= timeout
    ):
        return _error_response(
            rid,
            "deadline",
            "deadline of %.3fs expired during check" % timeout,
            session=sess.sid,
            wall_seconds=round(elapsed, 6),
        )
    response: Dict[str, Any] = {
        "id": rid,
        "ok": True,
        "session": sess.sid,
        "status": result.status,
        "backend": result.backend,
        "depth": sess.session.depth,
        "wall_seconds": round(elapsed, 6),
    }
    if result.model is not None:
        response["model"] = interp_to_jsonable(result.model)
    if result.core is not None:
        response["core"] = [to_sexpr(f) for f in result.core]
    return response


def _session_op(
    state: _ServerState,
    sess: _ServeSession,
    payload: Dict[str, Any],
    received: float,
) -> Dict[str, Any]:
    """Execute one ordered session op; never raises."""
    rid = payload.get("id")
    kind = payload.get("kind")
    try:
        if sess.session.closed:
            return _error_response(
                rid,
                "unknown-session-id",
                "session %s is closed" % sess.sid,
            )
        if kind == "assert":
            formula_text = payload.get("formula")
            if not isinstance(formula_text, str) or not formula_text.strip():
                raise ValueError(
                    "'formula' must be a non-empty s-expression string"
                )
            index = sess.session.assert_formula(parse_formula(formula_text))
            return {
                "id": rid,
                "ok": True,
                "session": sess.sid,
                "index": index,
                "depth": sess.session.depth,
            }
        if kind == "push":
            depth = sess.session.push()
            return {"id": rid, "ok": True, "session": sess.sid, "depth": depth}
        if kind == "pop":
            levels = payload.get("levels", 1)
            if not isinstance(levels, int) or isinstance(levels, bool):
                raise ValueError("'levels' must be an integer")
            depth = sess.session.pop(levels)
            return {"id": rid, "ok": True, "session": sess.sid, "depth": depth}
        if kind == "check":
            return _session_check(state, sess, payload, received)
        # kind == "close" — the entry stays in the map (marked closed) so
        # ops already queued behind the close are still answered.
        checks = sess.session.stats.checks
        sess.session.close()
        return {"id": rid, "ok": True, "session": sess.sid, "checks": checks}
    except SessionError as exc:
        if kind == "pop":
            return _error_response(
                rid, "pop-below-zero", str(exc), session=sess.sid
            )
        return _error_response(
            rid, "unknown-session-id", str(exc), session=sess.sid
        )
    except ParseError as exc:
        return _error_response(rid, "parse", str(exc), session=sess.sid)
    except ValueError as exc:
        return _error_response(rid, "bad-request", str(exc), session=sess.sid)
    except Exception as exc:  # an op must never kill the session's turn
        return _error_response(
            rid,
            "internal",
            "%s: %s" % (type(exc).__name__, exc),
            session=sess.sid,
        )


def _session_turn(state: _ServerState, sid: str) -> None:
    """Drain one session's pending ops in arrival order."""
    with state.sessions_lock:
        sess = state.sessions.get(sid)
    if sess is None:  # pragma: no cover - sessions are never removed
        return
    while True:
        with sess.lock:
            if not sess.pending:
                sess.busy = False
                return
            payload, received = sess.pending.popleft()
        state.write(_session_op(state, sess, payload, received))
        state.bump("served")


def _worker(state: _ServerState) -> None:
    while True:
        try:
            payload, received = state.jobs.get(timeout=_TICK)
        except queue.Empty:
            if state.eof.is_set() or state.stop.is_set():
                return
            continue
        if "_session_turn" in payload:
            try:
                _session_turn(state, payload["_session_turn"])
            finally:
                state.jobs.task_done()
            continue
        try:
            response = _solve_one(state, payload, received)
        except Exception as exc:  # pragma: no cover - belt and braces
            response = _error_response(
                payload.get("id"),
                "internal",
                "%s: %s" % (type(exc).__name__, exc),
            )
        state.write(response)
        state.bump("served")
        state.jobs.task_done()


def run_server(
    config: Optional[ServeConfig] = None,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
) -> int:
    """Serve line-delimited JSON requests until EOF or SIGTERM; returns 0.

    Emits a ``{"event": "ready"}`` line once the workers are up — clients
    should wait for it before sending — and a ``{"event": "bye"}`` line
    after the drain, with totals.  Without ``stdin`` the server reads the
    process's stdin, and ``sys.stdin`` is an ``os.devnull`` stand-in
    until it returns.
    """
    config = config or ServeConfig()
    out = stdout if stdout is not None else sys.stdout
    if stdin is not None:
        return _serve(config, stdin, out)
    # A forked race member's bootstrap closes ``sys.stdin``.  The reader
    # thread holds the real stdin's buffer lock while it waits in
    # ``readline``, and a fork copies that lock still held, so a member
    # that closed the real stdin would block forever.  It closes the
    # stand-in instead, which no thread has locked.
    real_stdin = sys.stdin
    stand_in = open(os.devnull)
    sys.stdin = stand_in
    try:
        return _serve(config, real_stdin, out)
    finally:
        sys.stdin = real_stdin
        stand_in.close()


def _serve(config: ServeConfig, inp: IO[str], out: IO[str]) -> int:
    cache: Optional[ResultCache] = None
    if config.use_cache:
        cache = ResultCache(disk_dir=config.cache_dir)
    state = _ServerState(
        config=config,
        out=out,
        cache=cache,
        jobs=queue.Queue(maxsize=max(1, config.queue_size)),
    )

    if config.install_signal_handlers:
        def _request_stop(signum: int, frame: Optional[Any]) -> None:  # pragma: no cover - signal path
            state.stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)

    workers = [
        threading.Thread(
            target=_worker, args=(state,), name="serve-worker-%d" % i
        )
        for i in range(max(1, config.workers))
    ]
    for thread in workers:
        thread.start()

    # ``ready`` goes out before the reader starts so it is always the
    # first line a client sees.
    state.write(
        {
            "event": "ready",
            "workers": len(workers),
            "queue_size": state.jobs.maxsize,
            "engine": config.engine,
            "cache": config.use_cache,
        }
    )
    reader = threading.Thread(
        target=_reader, args=(state, inp), name="serve-reader", daemon=True
    )
    reader.start()

    # Wait for either EOF (normal end of input) or a stop signal; then
    # drain: everything already accepted is still answered.
    while not (state.eof.is_set() or state.stop.is_set()):
        time.sleep(_TICK)
    state.jobs.join()
    state.stop.set()
    for thread in workers:
        thread.join()

    # Evict every session still open after the drain: all accepted ops
    # have been answered above, so closing here loses nothing.
    with state.sessions_lock:
        for sess in state.sessions.values():
            if not sess.session.closed:
                sess.session.close()
                state.sessions_evicted += 1
        state.sessions.clear()

    totals: Dict[str, Any] = {
        "event": "bye",
        "served": state.served,
        "rejected": state.rejected,
    }
    if state.sessions_opened:
        totals["sessions"] = {
            "opened": state.sessions_opened,
            "evicted": state.sessions_evicted,
        }
    if cache is not None:
        totals["cache"] = {
            "hits_memory": cache.stats.hits_memory,
            "hits_disk": cache.stats.hits_disk,
            "misses": cache.stats.misses,
            "stores": cache.stats.stores,
        }
    state.write(totals)
    return 0
