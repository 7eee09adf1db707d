"""Generated CNF instances for SAT-core tests and profiling.

Two families, each named by its parameters so the name alone rebuilds
the instance:

* ``r3_<vars>_<clauses>_s<seed>``: fixed-seed uniform random 3-CNF
  (``r3_190_808_s19`` sits near the ~4.26 phase-transition ratio);
* ``php_<pigeons>_<holes>``: the pigeonhole principle, UNSAT whenever
  ``pigeons > holes``.
"""

from __future__ import annotations

import random
import re

from ..sat.cnf import Cnf

__all__ = ["random_3cnf", "pigeonhole_cnf", "cnf_instance"]

_RANDOM_3CNF_NAME = re.compile(r"r3_(\d+)_(\d+)_s(\d+)")
_PIGEONHOLE_NAME = re.compile(r"php_(\d+)_(\d+)")


def random_3cnf(seed: int, num_vars: int, num_clauses: int) -> Cnf:
    """Fixed-seed uniform random 3-CNF (three distinct variables)."""
    rng = random.Random(seed)
    cnf = Cnf()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause(
            [v if rng.random() < 0.5 else -v for v in chosen]
        )
    return cnf


def pigeonhole_cnf(pigeons: int, holes: int) -> Cnf:
    """Pigeonhole principle CNF; UNSAT whenever ``pigeons > holes``."""
    cnf = Cnf()
    var = {
        (p, h): cnf.new_var()
        for p in range(pigeons)
        for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


def cnf_instance(name: str) -> Cnf:
    """Build the instance a ``r3_...`` or ``php_...`` name describes."""
    match = _RANDOM_3CNF_NAME.fullmatch(name)
    if match:
        num_vars, num_clauses, seed = map(int, match.groups())
        return random_3cnf(seed, num_vars, num_clauses)
    match = _PIGEONHOLE_NAME.fullmatch(name)
    if match:
        return pigeonhole_cnf(*map(int, match.groups()))
    raise ValueError(
        "unknown CNF instance %r (expected r3_<vars>_<clauses>_s<seed> "
        "or php_<pigeons>_<holes>)" % name
    )
