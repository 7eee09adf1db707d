"""The parallel portfolio driver: race engines, first decided verdict wins.

The paper's HYBRID exists because neither SD nor EIJ is robust across
workloads; the portfolio applies the same argument across whole
procedures.  Members run in separate processes (the CDCL search is pure
Python and CPU-bound, so threads would serialize on the GIL); the first
``VALID``/``INVALID`` verdict is adopted and every still-running member
is terminated.  Ties — two members decided within the same poll tick —
are broken by registry priority order, which makes the winning engine
deterministic whenever completion order is (and is also what the
sequential fallback uses).

At most one member runs per usable CPU.  Members start in priority
order, and the next one starts when a running member reports without a
verdict (or dies), so every member, the winner included, gets a whole
CPU.  The default order puts HYBRID and the lazy procedure first: they
decide different families, and the other members mostly decide what
HYBRID decides.  The price: with fewer CPUs than members, a later
member gets CPU only once an earlier one gives up, so a formula that
only it decides, while the first members run to the deadline, is lost.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue as queue_mod
import signal
import time
from typing import Any, Collection, Dict, List, Optional, Sequence, Tuple

from ..core.status import Status
from ..logic.printer import to_sexpr
from .base import Engine
from .contract import SolveOutcome, SolveRequest

__all__ = ["PortfolioEngine", "solve_portfolio", "default_members"]

#: How long a cancelled member may take to die before escalating to kill.
_TERMINATE_GRACE = 2.0

#: Poll granularity while waiting for results with no deadline.
_POLL_SECONDS = 0.05


#: The meta-engines, never default race members.  Racing the race is
#: circular, and a cache member adds nothing but a second
#: canonicalization of the same formula.  ``cube`` forks its own worker
#: fleet, which would oversubscribe the machine for every easy formula.
_META_ENGINES = ("portfolio", "cached", "cube")


def default_members() -> List[str]:
    """Every registered engine except the meta-engines."""
    from . import registry

    return [
        name for name in registry.list_engines() if name not in _META_ENGINES
    ]


def _resolve_members(engines: Optional[Sequence[str]]) -> List[str]:
    """The distinct member names, each looked up before any fork.

    An unknown name raises the registry's ``KeyError`` here instead of
    racing as an ``ERROR`` member, and forked members inherit the
    loaded registry instead of each importing it.  A repeated name
    races once: the race tracks its members by name.
    """
    from . import registry

    members = (
        list(dict.fromkeys(engines))
        if engines is not None
        else default_members()
    )
    if not members:
        raise ValueError("portfolio needs at least one member engine")
    for name in members:
        registry.get(name)
    return members


def _request_payload(request: SolveRequest) -> Dict[str, Any]:
    """A picklable, process-independent image of ``request``.

    The formula travels as its s-expression text and is re-parsed in the
    worker, which re-establishes hash-consing in that process regardless
    of the multiprocessing start method.
    """
    payload = {
        field.name: getattr(request, field.name)
        for field in dataclasses.fields(request)
    }
    payload["formula"] = to_sexpr(request.formula)
    return payload


def _request_from_payload(payload: Dict[str, Any]) -> SolveRequest:
    from ..logic.parser import parse_formula

    return SolveRequest(
        **dict(payload, formula=parse_formula(payload["formula"]))
    )


def _member_worker(name: str, payload: Dict[str, Any], out_queue: Any) -> None:
    """Run one member engine in a child process; always reports back."""
    from . import registry

    # A forked member inherits its parent's handlers; ``repro serve``'s
    # only sets a drain flag, which would swallow the SIGTERM that
    # cancels a loser.  So SIGTERM kills a member again.  A terminal's
    # Ctrl-C reaches the whole process group; only the parent acts on
    # it (serve drains, other callers cancel their members).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    try:
        outcome = registry.get(name).solve(_request_from_payload(payload))
    except Exception as exc:  # a member crash must not kill the race
        outcome = SolveOutcome(
            engine=name,
            status=Status.ERROR,
            detail="%s: %s" % (type(exc).__name__, exc),
        )
    out_queue.put((name, outcome))


def _mp_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pick_winner(
    decided: Dict[str, SolveOutcome], members: Sequence[str]
) -> Tuple[str, SolveOutcome]:
    """Deterministic tie-break: lowest member-priority index wins."""
    name = min(decided, key=lambda n: members.index(n))
    return name, decided[name]


def _portfolio_outcome(
    winner_name: Optional[str],
    winner: Optional[SolveOutcome],
    members: Sequence[str],
    launched: Collection[str],
    finished: Dict[str, SolveOutcome],
    cancelled: Sequence[str],
    started: float,
) -> SolveOutcome:
    wall = time.perf_counter() - started
    from ..core.result import StageRecord

    def race_record() -> StageRecord:
        # Built at each publish site (the publish-early contract,
        # RE305): a record created up front and attached later is lost
        # if summarization raises in between.
        return StageRecord(
            "race",
            wall,
            {
                "members": len(members),
                "launched": len(launched),
                "finished": len(finished),
                "cancelled": len(cancelled),
            },
        )

    if winner is None:
        # Nothing decided: adopt the highest-priority finished outcome
        # (keeps TRANSLATION_LIMIT vs UNKNOWN distinctions) or report
        # a bare timeout.
        summary = ", ".join(
            "%s=%s" % (name, finished[name].status)
            for name in members
            if name in finished
        )
        not_started = ", ".join(n for n in members if n not in launched)
        if not_started:
            summary += "%snot started: %s" % (
                "; " if summary else "",
                not_started,
            )
        if finished:
            name, best = _pick_winner(dict(finished), members)
            status = best.status
            if status is Status.ERROR:
                status = Status.UNKNOWN
            best.stats.stages = list(best.stats.stages) + [race_record()]
            return SolveOutcome(
                engine="portfolio",
                status=status,
                stats=best.stats,
                detail="no engine decided (%s)" % summary,
                wall_seconds=wall,
            )
        detail = "deadline reached before any engine finished"
        undecided = SolveOutcome(
            engine="portfolio",
            status=Status.UNKNOWN,
            detail="%s (%s)" % (detail, summary) if summary else detail,
            wall_seconds=wall,
        )
        undecided.stats.stages = [race_record()]
        return undecided
    outcome = SolveOutcome(
        engine="portfolio",
        status=winner.status,
        stats=winner.stats,
        counterexample=winner.counterexample,
        detail=winner.detail,
        wall_seconds=wall,
        winner=winner_name,
    )
    if cancelled:
        extra = "cancelled: %s" % ", ".join(cancelled)
        outcome.detail = (
            "%s; %s" % (outcome.detail, extra) if outcome.detail else extra
        )
    # The race itself is a stage: telemetry must show how many members
    # ran, finished, and were cancelled (tested by the loser-cancellation
    # test; do not drop these counters).
    outcome.stats.stages = list(outcome.stats.stages) + [race_record()]
    return outcome


def _solve_sequential(
    request: SolveRequest,
    members: Sequence[str],
    deadline: Optional[float] = None,
) -> SolveOutcome:
    """In-process fallback: priority order, stop at the first verdict."""
    from . import registry

    started = time.perf_counter()
    finished: Dict[str, SolveOutcome] = {}
    if deadline is None:
        deadline = request.time_limit
    cutoff = started + deadline if deadline is not None else None
    for name in members:
        if cutoff is not None and time.perf_counter() >= cutoff:
            break
        try:
            outcome = registry.get(name).solve(request)
        except Exception as exc:
            outcome = SolveOutcome(
                engine=name,
                status=Status.ERROR,
                detail="%s: %s" % (type(exc).__name__, exc),
            )
        finished[name] = outcome
        if outcome.decided:
            return _portfolio_outcome(
                name, outcome, members, finished, finished, [], started
            )
    return _portfolio_outcome(
        None, None, members, finished, finished, [], started
    )


def solve_portfolio(
    request: SolveRequest,
    engines: Optional[Sequence[str]] = None,
    parallel: bool = True,
    deadline: Optional[float] = None,
) -> SolveOutcome:
    """Race ``engines`` on ``request``; first decided verdict wins.

    At most one member per usable CPU runs at once.  Members start in
    the order of ``engines`` (default: registry priority order); the
    next one starts when a running member reports without a verdict or
    dies without a report.  An unknown member name raises ``KeyError``
    before anything starts; a repeated one races once.

    ``deadline`` (seconds, default ``request.time_limit``) bounds the
    whole race; each member, however late it starts, additionally
    receives ``request.time_limit`` as its own budget.  With
    ``parallel=False`` the members run in-process in priority order
    instead (deterministic, multiprocessing-free).
    """
    members = _resolve_members(engines)
    if deadline is None:
        deadline = request.time_limit
    if not parallel:
        return _solve_sequential(request, members, deadline=deadline)

    ctx = _mp_context()
    results = ctx.Queue()
    payload = _request_payload(request)
    slots = _usable_cpus()
    waiting = iter(members)
    started = time.perf_counter()
    procs: Dict[str, multiprocessing.Process] = {}
    finished: Dict[str, SolveOutcome] = {}
    decided: Dict[str, SolveOutcome] = {}

    def launch() -> None:
        # A slot frees when its member reports, not when it exits.
        while len(procs) - len(finished) < slots:
            name = next(waiting, None)
            if name is None:
                return
            proc = ctx.Process(
                target=_member_worker,
                args=(name, payload, results),
                name="portfolio-%s" % name,
                daemon=True,
            )
            proc.start()
            procs[name] = proc

    try:
        launch()
        while len(finished) < len(members):
            if deadline is not None:
                remaining = deadline - (time.perf_counter() - started)
                if remaining <= 0:
                    break
                timeout = min(remaining, _POLL_SECONDS * 4)
            else:
                timeout = _POLL_SECONDS * 4
            try:
                name, outcome = results.get(timeout=timeout)
            except queue_mod.Empty:
                # A member that died without reporting (OOM-kill, signal)
                # must not hang the race forever.
                for name, proc in procs.items():
                    if name not in finished and not proc.is_alive():
                        finished[name] = SolveOutcome(
                            engine=name,
                            status=Status.ERROR,
                            detail="worker exited without a result "
                            "(exitcode %s)" % proc.exitcode,
                        )
                launch()
                continue
            finished[name] = outcome
            if outcome.decided:
                decided[name] = outcome
                # Drain same-tick arrivals so the priority tie-break sees
                # every verdict that is already available.
                while True:
                    try:
                        other_name, other = results.get_nowait()
                    except queue_mod.Empty:
                        break
                    finished[other_name] = other
                    if other.decided:
                        decided[other_name] = other
                break
            launch()
    finally:
        cancelled = _cancel_losers(procs, finished)

    if decided:
        winner_name, winner = _pick_winner(decided, members)
        return _portfolio_outcome(
            winner_name, winner, members, procs, finished, cancelled, started
        )
    return _portfolio_outcome(
        None, None, members, procs, finished, cancelled, started
    )


def _cancel_losers(
    procs: Dict[str, multiprocessing.Process],
    finished: Dict[str, SolveOutcome],
) -> List[str]:
    """Terminate members that are still running; return their names."""
    cancelled = []
    for name, proc in procs.items():
        if proc.is_alive():
            proc.terminate()
            if name not in finished:
                cancelled.append(name)
    for proc in procs.values():
        proc.join(timeout=_TERMINATE_GRACE)
        if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            proc.kill()
            proc.join(timeout=_TERMINATE_GRACE)
    return cancelled


class PortfolioEngine(Engine):
    """The default-member portfolio as a registry engine of its own.

    Inside a daemonic process (a member of an enclosing race), which
    cannot fork the race's members, it runs the sequential portfolio
    instead.
    """

    name = "portfolio"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        return solve_portfolio(
            request, parallel=not multiprocessing.current_process().daemon
        )
