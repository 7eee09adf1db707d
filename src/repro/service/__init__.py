"""Request-level reuse on top of the engine layer.

The decision procedure is a validity oracle that real clients hammer
with thousands of closely related queries (predicate abstraction alone
issues huge batches of overlapping validity checks).  This package adds
the missing reuse layer:

* :mod:`repro.service.cache` — a canonicalization-keyed two-tier result
  cache (in-memory LRU + optional on-disk store) plus the ``cached``
  engine wrapper registered in :mod:`repro.engine.registry`;
* :mod:`repro.service.server` — the ``repro serve`` loop: line-delimited
  JSON requests over stdin/stdout with per-request deadlines, bounded
  queue backpressure and graceful drain on SIGTERM.

Formulas equal up to a consistent renaming of their symbols share one
cache entry by construction: keys are the canonical digests of
:mod:`repro.logic.canonical`, which name symbols in one first-occurrence
walk and read each ``=`` as written, and countermodels are stored in
canonical names and lifted back through each requester's renaming map.
"""

from .cache import (
    CachedEngine,
    CacheEntry,
    ResultCache,
    config_fingerprint,
    interp_from_jsonable,
    interp_to_jsonable,
    solve_cached,
)
from .server import ServeConfig, run_server

__all__ = [
    "CachedEngine",
    "CacheEntry",
    "ResultCache",
    "config_fingerprint",
    "interp_from_jsonable",
    "interp_to_jsonable",
    "solve_cached",
    "ServeConfig",
    "run_server",
]
