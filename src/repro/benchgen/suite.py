"""The 49-formula benchmark suite and the 16-formula sample.

Mirrors the paper's evaluation setup: 49 valid formulas drawn from both
hardware and software verification domains, of which 10 are
invariant-checking formulas (the family where SD dominates, Figure 5) and
39 are not (Figures 4 and 6).  A 16-formula sample — at least one per
domain — drives the Figure-3 feature study and the SEP_THOLD selection.

Size calibration
----------------
The paper's formulas span 100–7500 DAG nodes and were decided by compiled
ML + zChaff under a 30-minute budget.  This reproduction's stack is pure
Python (roughly two to three orders of magnitude slower per propagation),
so the suite is scaled to 25–800 DAG nodes and a default budget of tens of
seconds — chosen so that the *relative* behaviour matches the paper:

* equality-dominated formulas (pipeline, cache, transval, loadstore) are
  decided quickly by EIJ, while SD's bit-level search lags and times out
  on the larger cache/transval entries;
* the offset-rich families (ooo, driver) are fine under EIJ while small
  but hit the transitivity-translation explosion at larger sizes — at
  which point their per-class SepCnt exceeds the calibrated threshold, so
  HYBRID switches those classes to SD and still completes;
* the invariant-checking family keeps SepCnt *low* (the paper: "even if
  the original number of separation predicates in each class is
  relatively low ... this leads to a large number of transitivity
  constraints"), so EIJ — and HYBRID at the default threshold — fail on
  all of them while SD finishes in seconds.

All benchmarks are deterministic; ``suite()`` and ``sample16()`` always
return the same formulas.
"""

from __future__ import annotations

from typing import List, Optional

from .base import Benchmark
from .cache import make_cache
from .driver import make_driver
from .invariant import make_invariant
from .loadstore import make_loadstore
from .ooo import make_ooo
from .pipeline import make_pipeline
from .transval import make_transval

__all__ = [
    "suite",
    "non_invariant_suite",
    "invariant_suite",
    "sample16",
    "benchmark_by_name",
    "DOMAINS",
]

DOMAINS = (
    "pipeline",
    "loadstore",
    "ooo",
    "cache",
    "driver",
    "transval",
    "invariant",
)

# (factory, kwargs) — 39 non-invariant benchmarks.
_NON_INVARIANT = [
    (make_pipeline, dict(stages=2, reads=2, seed=1)),
    (make_pipeline, dict(stages=3, reads=2, seed=2)),
    (make_pipeline, dict(stages=4, reads=2, seed=3)),
    (make_pipeline, dict(stages=5, reads=2, seed=4)),
    (make_pipeline, dict(stages=4, reads=3, seed=5)),
    (make_pipeline, dict(stages=6, reads=2, seed=6)),
    (make_pipeline, dict(stages=8, reads=2, seed=7)),
    (make_loadstore, dict(entries=3, pointers=6, seed=1)),
    (make_loadstore, dict(entries=5, pointers=10, seed=2)),
    (make_loadstore, dict(entries=7, pointers=14, seed=3)),
    (make_loadstore, dict(entries=9, pointers=18, seed=4)),
    (make_loadstore, dict(entries=12, pointers=24, seed=5)),
    (make_loadstore, dict(entries=15, pointers=30, seed=6)),
    (make_ooo, dict(tags=4, seed=1)),
    (make_ooo, dict(tags=5, seed=2)),
    (make_ooo, dict(tags=6, seed=3)),
    (make_ooo, dict(tags=8, seed=4)),
    (make_ooo, dict(tags=15, seed=5)),
    (make_ooo, dict(tags=15, seed=6)),
    (make_ooo, dict(tags=16, seed=7)),
    (make_cache, dict(caches=2, seed=1)),
    (make_cache, dict(caches=3, seed=2)),
    (make_cache, dict(caches=4, seed=3)),
    (make_cache, dict(caches=5, seed=4)),
    (make_cache, dict(caches=6, seed=5)),
    (make_cache, dict(caches=7, seed=6)),
    (make_driver, dict(steps=3, seed=1)),
    (make_driver, dict(steps=4, seed=2)),
    (make_driver, dict(steps=5, seed=3)),
    (make_driver, dict(steps=6, seed=4)),
    (make_driver, dict(steps=12, seed=5)),
    (make_driver, dict(steps=16, seed=6)),
    (make_driver, dict(steps=20, seed=7)),
    (make_transval, dict(size=1, inputs=3, seed=1)),
    (make_transval, dict(size=2, inputs=4, seed=2)),
    (make_transval, dict(size=3, inputs=4, seed=3)),
    (make_transval, dict(size=3, inputs=5, seed=4)),
    (make_transval, dict(size=4, inputs=4, seed=5)),
    (make_transval, dict(size=5, inputs=4, seed=6)),
]

# 10 invariant-checking benchmarks (cells sized so the per-constraint
# translation fails on every one while SD completes).
_INVARIANT = [
    (make_invariant, dict(cells=10, seed=1)),
    (make_invariant, dict(cells=11, seed=2)),
    (make_invariant, dict(cells=12, seed=3)),
    (make_invariant, dict(cells=13, seed=4)),
    (make_invariant, dict(cells=14, seed=5)),
    (make_invariant, dict(cells=15, seed=6)),
    (make_invariant, dict(cells=16, seed=7)),
    (make_invariant, dict(cells=17, seed=8)),
    (make_invariant, dict(cells=18, seed=9)),
    (make_invariant, dict(cells=19, seed=10)),
]

# The 16-formula sample: at least one per problem domain (paper §3).  The
# sample is what drives the Figure-3 feature correlation and the
# SEP_THOLD auto-selection, so it spans the fast EIJ region and the
# translation-explosion region.
_SAMPLE16_INDICES = {
    # indices into non_invariant_suite()
    "non_invariant": [0, 3, 8, 11, 14, 16, 18, 21, 23, 27, 29, 31, 33],
    # indices into invariant_suite()
    "invariant": [1, 5, 8],
}


def non_invariant_suite(valid: bool = True) -> List[Benchmark]:
    """The 39 non-invariant-checking benchmarks (Figures 4 and 6)."""
    return [
        factory(valid=valid, **kwargs) for factory, kwargs in _NON_INVARIANT
    ]


def invariant_suite(valid: bool = True) -> List[Benchmark]:
    """The 10 invariant-checking benchmarks (Figure 5)."""
    return [factory(valid=valid, **kwargs) for factory, kwargs in _INVARIANT]


def suite(valid: bool = True) -> List[Benchmark]:
    """All 49 benchmarks."""
    return non_invariant_suite(valid) + invariant_suite(valid)


def sample16() -> List[Benchmark]:
    """The 16-benchmark sample used for Figure 3 and SEP_THOLD selection."""
    non_inv = non_invariant_suite()
    inv = invariant_suite()
    out = [non_inv[i] for i in _SAMPLE16_INDICES["non_invariant"]]
    out += [inv[i] for i in _SAMPLE16_INDICES["invariant"]]
    return out


def benchmark_by_name(name: str, valid: bool = True) -> Optional[Benchmark]:
    """Look up one suite benchmark by its generated name."""
    for bench in suite(valid=valid):
        if bench.name == name:
            return bench
    return None
