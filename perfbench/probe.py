"""Set-up probe: one fresh interpreter does one workload's set-up.

``python3 perfbench/probe.py WORKLOAD SEED`` imports what the workload
needs, builds its inputs (for ``smtlib`` by emitting the scripts, for
``serve`` by starting the server and reading its ``ready`` line), prints
``ready`` when the first query could be issued, then tears down.  The
benchmark times it from spawn to ``ready``.

``python3 perfbench/probe.py --emit-smtlib DIR`` writes the suite's
SMT-LIB scripts into ``DIR`` (the ``smtlib`` workload's emitter).
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv: list) -> int:
    if argv[1] == "--emit-smtlib":
        from workloads import emit_suite_scripts

        emit_suite_scripts(argv[2])
        return 0
    from measure import Tally
    from run import make_workload
    from workloads import Context

    workload = make_workload(argv[1])
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload.setup(Context(ROOT, tmp, int(argv[2])))
        print("ready", flush=True)
        workload.teardown(Tally(limit_s=workload.limit_s))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
