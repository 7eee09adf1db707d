"""Cube-and-conquer: split one hard formula, conquer cubes in parallel.

The portfolio parallelises across *engines*; this module parallelises
**within** one formula.  The eager pipeline runs unchanged up to the SAT
stage (:func:`repro.engine.stages.run_eager` with a ``sat_runner``),
then:

1. :func:`repro.sat.cubes.generate_cubes` splits the CNF into assumption
   cubes, preferring the separation-predicate (EIJ) variables surfaced
   by the ``cnf`` stage — the paper's structurally important case
   splits.
2. Worker processes conquer cubes from a shared queue with
   :meth:`~repro.sat.solver.CdclSolver.solve_under_assumptions` (the
   arena solver is reused unchanged; cubes are assumption lists).
3. Learned units and short/low-LBD clauses flow back through a
   multiprocessing conduit: workers export through the solver's
   admission filter, the conductor deduplicates and broadcasts, and
   peers import at restart boundaries.  Sharing is sound because
   nothing learned under assumptions ever depends on them.
4. A cube whose conflict budget runs out is *re-split* by a resident
   :class:`~repro.sat.cubes.CubeSplitter` and its children re-queued
   with a doubled budget — work-stealing-style dynamic refutation, so
   one pathological cube cannot stall the run.

With a single worker (or inside a daemonic process such as a race
member, which cannot fork) the conductor degrades to sequential
conquering in one resident solver — still profitable, because every
cube inherits the full learned clause database of its predecessors.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import asdict
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.result import StageRecord
from ..sat.cnf import Cnf
from ..sat.cubes import CubeConfig, CubeSplitter, generate_cubes
from ..sat.solver import CdclSolver, SatResult, SatStats
from .base import Engine
from .contract import SolveOutcome, SolveRequest
from .portfolio import _mp_context, _usable_cpus
from .stages import run_eager

__all__ = ["CubeEngine", "conquer"]

#: Initial per-cube conflict budget; doubled on every re-split.
DEFAULT_BUDGET = 3000
#: Default cube-tree depth (2**depth leaves before refutation/capping).
DEFAULT_DEPTH = 4
#: Grace period for worker shutdown before escalating to terminate().
_TERMINATE_GRACE = 2.0
#: Conductor poll interval while waiting for cube results.
_POLL_SECONDS = 0.05


def _auto_procs() -> int:
    """Default worker count: one per usable CPU, capped at 4."""
    return min(4, _usable_cpus())


def _snapshot(stats: SatStats) -> Dict[str, Any]:
    return asdict(stats)


def _merge_stats(total: SatStats, snap: Dict[str, Any]) -> None:
    total.decisions += int(snap["decisions"])
    total.propagations += int(snap["propagations"])
    total.conflicts += int(snap["conflicts"])
    total.learned_clauses += int(snap["learned_clauses"])
    total.restarts += int(snap["restarts"])
    total.max_decision_level = max(
        total.max_decision_level, int(snap["max_decision_level"])
    )
    total.deleted_clauses += int(snap["deleted_clauses"])
    total.inprocessings += int(snap["inprocessings"])
    total.vivified_clauses += int(snap["vivified_clauses"])
    total.subsumed_clauses += int(snap["subsumed_clauses"])
    total.exported_clauses += int(snap["exported_clauses"])
    total.imported_clauses += int(snap["imported_clauses"])


def _cube_worker(
    wid: int,
    cnf: Cnf,
    units: List[int],
    share: bool,
    deadline: Optional[float],
    task_q: Any,
    result_q: Any,
    clause_q: Any,
    in_q: Any,
) -> None:
    """One conquering process: pull cubes, solve, report, share clauses.

    The solver is resident across cubes, so learned clauses, variable
    activities, and saved phases carry over locally; the conduit only
    has to recover *cross*-worker retention.  Stats snapshots sent with
    every result are cumulative — the conductor keeps the latest one per
    worker and sums at the end.

    With ``REPRO_CUBE_PROFILE_DIR`` set (``tools/profile_sat.py
    --cube``) the whole worker runs under cProfile and dumps its pstats
    there on exit, one file per worker, for the tool to merge.
    """
    profile_dir = os.environ.get("REPRO_CUBE_PROFILE_DIR")
    profiler = None
    if profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        _cube_worker_loop(
            wid, cnf, units, share, deadline, task_q, result_q, clause_q, in_q
        )
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(
                os.path.join(
                    profile_dir,
                    "cube-worker-%d-%d.pstats" % (wid, os.getpid()),
                )
            )


def _cube_worker_loop(
    wid: int,
    cnf: Cnf,
    units: List[int],
    share: bool,
    deadline: Optional[float],
    task_q: Any,
    result_q: Any,
    clause_q: Any,
    in_q: Any,
) -> None:
    solver = CdclSolver(cnf)
    for unit in units:
        solver.add_clause([unit])
    if share:

        def _export(lits: List[int], lbd: int) -> None:
            clause_q.put((wid, lits))

        def _import() -> List[List[int]]:
            out: List[List[int]] = []
            while True:
                try:
                    out.append(in_q.get_nowait())
                except queue.Empty:
                    return out

        solver.export_hook = _export
        solver.import_hook = _import
    while True:
        task = task_q.get()
        if task is None:
            return
        cube_id, cube, budget = task
        if deadline is not None:
            remaining = deadline - time.time()
            if remaining <= 0:
                result_q.put((wid, cube_id, "UNKNOWN", None, None))
                continue
            solver.time_limit = remaining
        solver.max_conflicts = solver.stats.conflicts + budget
        result = solver.solve_under_assumptions(cube)
        model = result.model if result.status == "SAT" else None
        result_q.put(
            (wid, cube_id, result.status, model, _snapshot(solver.stats))
        )


def _conquer_sequential(
    cnf: Cnf,
    cubes: List[List[int]],
    units: List[int],
    request: SolveRequest,
    record: StageRecord,
) -> SatResult:
    """Single-process conquering: one resident solver, maximal retention."""
    deadline: Optional[float] = None
    if request.time_limit is not None:
        deadline = time.time() + request.time_limit
    solver = CdclSolver(cnf)
    for unit in units:
        solver.add_clause([unit])
    for cube in cubes:
        if deadline is not None:
            remaining = deadline - time.time()
            if remaining <= 0:
                return SatResult(status="UNKNOWN", stats=solver.stats)
            solver.time_limit = remaining
        result = solver.solve_under_assumptions(cube)
        if result.status != "UNSAT":
            # SAT: a satisfiable cube gives the model; UNKNOWN: deadline.
            return SatResult(
                status=result.status,
                model=result.model,
                stats=solver.stats,
            )
    record.counters["refuted_cubes"] = len(cubes)
    return SatResult(status="UNSAT", stats=solver.stats)


def _conquer_parallel(
    cnf: Cnf,
    cubes: List[List[int]],
    units: List[int],
    procs: int,
    share: bool,
    splitter: CubeSplitter,
    request: SolveRequest,
    record: StageRecord,
) -> SatResult:
    """Fan cubes over ``procs`` workers with clause sharing + re-splits."""
    deadline: Optional[float] = None
    if request.time_limit is not None:
        deadline = time.time() + request.time_limit
    ctx = _mp_context()
    task_q = ctx.Queue()
    result_q = ctx.Queue()
    clause_q = ctx.Queue()
    in_qs = [ctx.Queue() for _ in range(procs)]
    workers = [
        ctx.Process(
            target=_cube_worker,
            args=(
                wid,
                cnf,
                units,
                share,
                deadline,
                task_q,
                result_q,
                clause_q,
                in_qs[wid],
            ),
            daemon=True,
        )
        for wid in range(procs)
    ]
    for proc in workers:
        proc.start()

    pending: Dict[int, Tuple[List[int], int]] = {}
    next_id = 0
    for cube in cubes:
        pending[next_id] = (cube, DEFAULT_BUDGET)
        task_q.put((next_id, cube, DEFAULT_BUDGET))
        next_id += 1

    seen_clauses: Set[FrozenSet[int]] = set()
    latest: Dict[int, Dict[str, Any]] = {}
    shared = 0
    resplits = 0
    refuted = 0
    status = "UNSAT"
    model: Optional[Dict[int, bool]] = None

    def _broadcast() -> None:
        nonlocal shared
        while True:
            try:
                src, lits = clause_q.get_nowait()
            except queue.Empty:
                return
            key = frozenset(lits)
            if key in seen_clauses:
                continue
            seen_clauses.add(key)
            shared += 1
            for wid, in_q in enumerate(in_qs):
                if wid != src:
                    in_q.put(lits)

    try:
        while pending:
            _broadcast()
            if deadline is not None and time.time() > deadline:
                status = "UNKNOWN"
                break
            try:
                wid, cube_id, cube_status, cube_model, snap = result_q.get(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                if not any(proc.is_alive() for proc in workers):
                    status = "UNKNOWN"  # workers died under us
                    break
                continue
            if snap is not None:
                latest[wid] = snap
            cube, cube_budget = pending.pop(cube_id)
            if cube_status == "SAT":
                status, model = "SAT", cube_model
                break
            if cube_status == "UNSAT":
                refuted += 1
                continue
            # Budget exhausted: dynamically refine the cube and requeue
            # the children with a doubled budget (a cube that cannot be
            # split just gets the bigger budget directly).
            if deadline is not None and time.time() > deadline:
                status = "UNKNOWN"
                break
            children = splitter.resplit(cube)
            if children is None:
                refuted += 1  # lookahead refuted the whole cube
                continue
            resplits += 1
            for child in children:
                pending[next_id] = (child, cube_budget * 2)
                task_q.put((next_id, child, cube_budget * 2))
                next_id += 1
    finally:
        for _ in workers:
            task_q.put(None)
        deadline_join = time.time() + _TERMINATE_GRACE
        for proc in workers:
            proc.join(timeout=max(0.0, deadline_join - time.time()))
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_TERMINATE_GRACE)
        for q in (task_q, result_q, clause_q, *in_qs):
            q.cancel_join_thread()

    total = SatStats(original_clauses=len(cnf))
    for snap in latest.values():
        _merge_stats(total, snap)
    record.counters["workers"] = procs
    record.counters["resplits"] = resplits
    record.counters["refuted_cubes"] = refuted
    record.counters["shared_clauses"] = shared
    record.counters["imported"] = total.imported_clauses
    record.counters["exported"] = total.exported_clauses
    return SatResult(status=status, model=model, stats=total)


def conquer(
    cnf: Cnf,
    request: SolveRequest,
    record: StageRecord,
    sep_vars: List[int],
) -> SatResult:
    """The cube-and-conquer SAT stage (a :data:`~.stages.SatRunner`).

    Options read from ``request.options`` (all prefixed ``cube_``):
    ``cube_depth``, ``cube_procs`` (0 = one per core, capped at 4),
    ``cube_share`` (default on).
    """
    options = request.options
    depth = int(options.get("cube_depth", DEFAULT_DEPTH))
    procs = int(options.get("cube_procs", 0)) or _auto_procs()
    share = bool(options.get("cube_share", True))
    config = CubeConfig(depth=depth, prefer_vars=sep_vars)

    cube_set = generate_cubes(cnf, config)
    record.counters["cubes"] = len(cube_set.cubes)
    record.counters["cube_units"] = len(cube_set.units)
    record.counters["failed_literals"] = cube_set.stats.failed_literals
    record.counters["refuted_branches"] = cube_set.stats.refuted_branches
    record.counters["lookaheads"] = cube_set.stats.lookaheads
    if cube_set.status == "UNSAT":
        return SatResult(
            status="UNSAT", stats=SatStats(original_clauses=len(cnf))
        )

    # A daemonic process (a portfolio race member) cannot fork
    # children; degrade to sequential conquering there.
    if procs <= 1 or multiprocessing.current_process().daemon:
        return _conquer_sequential(
            cnf, cube_set.cubes, cube_set.units, request, record
        )
    splitter = CubeSplitter(cnf, config)
    splitter.add_units(cube_set.units)
    if not splitter.ok:
        return SatResult(
            status="UNSAT", stats=SatStats(original_clauses=len(cnf))
        )
    return _conquer_parallel(
        cnf,
        cube_set.cubes,
        cube_set.units,
        procs,
        share,
        splitter,
        request,
        record,
    )


class CubeEngine(Engine):
    """Cube-and-conquer over the eager pipeline (``--method cube``).

    Everything except the SAT stage is the sequential hybrid pipeline;
    the search itself is split into cubes and conquered in parallel
    with learned-clause sharing.  Complete, and countermodel-capable:
    a satisfiable cube's model flows through the standard
    reconstruction/decode stages.
    """

    name = "cube"

    def solve(self, request: SolveRequest) -> SolveOutcome:
        outcome = run_eager(request, method="hybrid", sat_runner=conquer)
        outcome.engine = self.name
        outcome.stats.method = "CUBE(HYBRID)"
        return outcome
