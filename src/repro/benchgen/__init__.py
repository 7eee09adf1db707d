"""Synthetic benchmark families standing in for the paper's 49 formulas."""

from .base import Benchmark, BenchmarkFactory
from .cache import make_cache
from .driver import make_driver
from .invariant import make_invariant
from .loadstore import make_loadstore
from .ooo import make_ooo
from .pipeline import make_pipeline
from .suite import (
    DOMAINS,
    benchmark_by_name,
    invariant_suite,
    non_invariant_suite,
    sample16,
    suite,
)
from .transval import make_transval

__all__ = [
    "Benchmark",
    "BenchmarkFactory",
    "make_cache",
    "make_driver",
    "make_invariant",
    "make_loadstore",
    "make_ooo",
    "make_pipeline",
    "make_transval",
    "DOMAINS",
    "benchmark_by_name",
    "invariant_suite",
    "non_invariant_suite",
    "sample16",
    "suite",
]
