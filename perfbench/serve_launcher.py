"""Start ``repro serve`` in its default configuration from the checkout.

Usage: ``python3 perfbench/serve_launcher.py REPORT_FILE [trace]``

With ``trace`` the layer entry points are wrapped first (see
``tracing.py``).  When the server exits, ``REPORT_FILE`` receives one
JSON object: the CPU seconds the server and its reaped members spent
after start-up (``cpu_s``), and its spans when traced.
"""

from __future__ import annotations

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list) -> int:
    tracer = None
    if len(argv) > 2:
        from tracing import Tracer, install

        tracer = install(Tracer())
    # Imported here only so that start-up CPU stays out of ``cpu_s``;
    # ``repro serve`` imports the same modules itself.
    import repro.service.server  # noqa: F401
    from repro.cli import main as repro_main

    start = _cpu_s()
    try:
        return repro_main(["serve"])
    finally:
        report = {
            "cpu_s": _cpu_s() - start,
            "spans": [span.to_json() for span in tracer.spans] if tracer else [],
        }
        with open(argv[1], "w") as fp:
            json.dump(report, fp)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
