"""The ``serve`` workload: ``repro serve`` as a subprocess in its default
configuration (2 workers, fork on, in-memory cache), fed over a live
stdin pipe by a closed-loop client with at most two requests outstanding.

The client never closes stdin early and never passes ``--no-fork``: a
defect on that path must show in the figures, not be routed around.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.logic.terms import And, Not
from repro.service.cache import interp_from_jsonable

from measure import Tally, Usage
from tracing import ClientLayer, Span
from workloads import (
    HERE,
    SERVE_DEADLINE_S,
    SERVE_OUTSTANDING,
    Context,
    Request,
    ServeStream,
    check_verdict,
)

#: How long the client waits for any response before declaring the
#: server stuck.  Far above every deadline the stream sets.
_STALL_S = 60.0


class ServeProcess:
    """One ``repro serve`` child started through ``serve_launcher.py``."""

    def __init__(self, report_path: str, traced: bool) -> None:
        argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"), report_path]
        if traced:
            argv.append("trace")
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self.lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            ready = self.next_timed()[1]
            if ready.get("event") != "ready":
                raise RuntimeError("serve did not start: %r" % (ready,))
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def next_timed(self) -> Tuple[float, Dict[str, Any]]:
        try:
            stamp, line = self.lines.get(timeout=_STALL_S)
        except queue.Empty:
            raise RuntimeError("serve sent nothing for %.0f s" % _STALL_S) from None
        if line is None:
            raise RuntimeError("serve exited (code %s)" % self.proc.poll())
        return stamp, json.loads(line)

    def send(self, message: Dict[str, Any]) -> float:
        assert self.proc.stdin is not None
        line = json.dumps(message) + "\n"
        stamp = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        return stamp

    def close(self) -> None:
        """End of input: serve drains, says ``bye`` and exits; reap it."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=_STALL_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


class ServeWorkload:
    limit_s = SERVE_DEADLINE_S

    def setup(self, ctx: Context) -> None:
        self.stream = ServeStream(ctx.seed)
        self.stream.chunk(0)
        self.report_path = os.path.join(ctx.tmp, "serve-report.json")
        self.answers: List[Tuple[Request, Optional[bool], Any]] = []
        self.client = ClientLayer()
        self.spans: List[Span] = []
        self.server = ServeProcess(self.report_path, ctx.tracer is not None)

    def run_pass(self, tally: Tally, index: int) -> None:
        pending: Deque[Request] = deque(self.stream.chunk(index))
        outstanding: Dict[str, Tuple[Request, float]] = {}
        sid_of: Dict[str, str] = {}
        while pending or outstanding:
            while pending and len(outstanding) < SERVE_OUTSTANDING:
                request = pending[0]
                if (
                    request.session is not None
                    and request.kind != "open"
                    and request.session not in sid_of
                ):
                    break  # its session's id is not known yet
                pending.popleft()
                message = dict(request.payload)
                message["id"] = request.rid
                if request.kind != "solve":
                    message["kind"] = request.kind
                if request.session is not None and request.kind != "open":
                    message["session"] = sid_of[request.session]
                outstanding[request.rid] = (request, self.server.send(message))
            stamp, response = self.server.next_timed()
            if "event" in response:
                continue
            request, sent = outstanding.pop(response["id"])
            self._answer(tally, request, response, stamp - sent, sid_of)

    def _answer(
        self,
        tally: Tally,
        request: Request,
        response: Dict[str, Any],
        latency: float,
        sid_of: Dict[str, str],
    ) -> None:
        if "wall_seconds" in response:
            self.client.transport_s.append(latency - response["wall_seconds"])
        if not response.get("ok"):
            tally.record(latency, request.verdict, error=response["error"]["kind"])
            if request.kind == "open":
                raise RuntimeError("serve refused a session: %r" % (response,))
            return
        if request.kind == "open":
            sid_of[request.session] = response["session"]
        if not request.verdict:
            tally.record(latency, False)
            return
        if request.kind == "solve":
            valid = response.get("valid")
            model = response.get("countermodel")
        else:
            valid = {"unsat": True, "sat": False}.get(response.get("status"))
            model = response.get("model")
            self.client.session_checks += 1
            if response.get("backend") == "incremental":
                self.client.incremental_checks += 1
        tally.record(latency, decided=valid is not None)
        self.answers.append((request, valid, model))

    def teardown(self, tally: Tally) -> None:
        self.server.close()
        with open(self.report_path) as fp:
            report = json.load(fp)
        # The server reports the CPU it and its reaped members spent after
        # start-up; the solving processes are the server and its members,
        # not this client.
        tally.cpu_s += report["cpu_s"]
        tally.peak_rss_mb = Usage.now().child_rss_mb
        self.spans = [Span.from_json(span) for span in report["spans"]]

    def check(self, tally: Tally) -> None:
        for request, valid, model in self.answers:
            formula = request.formula
            if request.kind == "check":
                formula = Not(And(*request.live))
            check_verdict(
                tally,
                request.rid,
                formula,
                request.expected,
                valid,
                interp_from_jsonable(model) if model is not None else None,
            )
