"""The repository's benchmark: one SUF query end to end.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 15 --trace 0

Workloads: ``suite``, ``smtlib``, ``serve`` and ``cube`` (see NOTES.md
for why each exists).  A run measures whole passes over the workload's
seeded query list: the first always, another while it is expected to
end within ``--seconds``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps each layer's entry points and reports per-layer
metrics instead, plus ``trace_overhead_frac``, the share of the measured
time the wrappers spent on their own bookkeeping.  The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

A run checks every answer after its timed passes: a wrong verdict or a
countermodel that does not falsify the original formula makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("suite", "smtlib", "serve", "cube")

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def make_workload(name: str) -> Any:
    from serve_client import ServeWorkload
    from workloads import EngineWorkload, SmtlibWorkload, cube_queries, suite_queries

    if name == "suite":
        return EngineWorkload("hybrid", suite_queries)
    if name == "cube":
        return EngineWorkload("cube", cube_queries, {"cube_procs": 2})
    if name == "smtlib":
        return SmtlibWorkload()
    if name == "serve":
        return ServeWorkload()
    raise ValueError("unknown workload %r" % name)


def measure_setup(name: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter until it could
    issue the workload's first query."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout is not None
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe for %s failed" % name)
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Any, Any, list]:
    """Set up, run the timed passes, tear down, then check every answer.

    Returns the tally, the workload, and the spans recorded in this
    process and (for ``serve``) in the server."""
    from measure import Tally, run_passes
    from tracing import Tracer, install
    from workloads import Context

    tracer = install(Tracer()) if trace else None
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = make_workload(name)
        workload.setup(Context(ROOT, tmp, seed, tracer))
        tally = Tally(limit_s=workload.limit_s)
        try:
            run_passes(lambda index: workload.run_pass(tally, index), seconds, tally)
        finally:
            workload.teardown(tally)
        if tracer is not None:
            tracer.uninstall()
        workload.check(tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return tally, workload, (tracer.spans if tracer is not None else []) + workload.spans


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            "error: no repro sources under %s; run from a full checkout"
            % os.path.join(ROOT, "src"),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tally, workload, spans = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    metrics: Dict[str, Tuple[float, str]]
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    if args.trace:
        from tracing import per_layer_metrics

        metrics = per_layer_metrics(spans, tally, workload.client)
        for name, (value, unit) in metrics.items():
            print("%-40s %.6g %s" % (name, value, unit))
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics = tally.end_to_end(setup_s)
        for line in tally.report_lines(setup_s):
            print(line)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.operations,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
