"""Common infrastructure for the synthetic benchmark families.

The paper evaluates on 49 formulas drawn from industrial verification runs
(load-store unit, out-of-order processor, cache coherence, DLX pipeline,
device drivers, translation validation).  Those formulas are proprietary;
each module in this package generates structurally analogous *valid*
formulas — plus invalid mutants for testing — with the qualitative features
the paper reports for its domain (see DESIGN.md §3/§4).

Every generator is deterministic in its ``(size, seed)`` parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..logic.terms import Formula
from ..logic.traversal import dag_size

__all__ = ["Benchmark", "BenchmarkFactory"]


@dataclass
class Benchmark:
    """One generated benchmark formula with its provenance."""

    name: str
    domain: str
    formula: Formula
    expected_valid: bool
    invariant_checking: bool = False
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def dag_size(self) -> int:
        return dag_size(self.formula)

    @property
    def canonical_key(self) -> str:
        """Alpha-invariant, process-stable identity of the formula.

        The single shared keying helper
        (:func:`repro.logic.canonical.canonical_key`) — the same digest
        the result cache uses, so a benchmark's identity in reports
        lines up with its cache entry.
        """
        from ..logic.canonical import canonical_key

        return canonical_key(self.formula)

    def __repr__(self) -> str:
        return "Benchmark(%s, domain=%s, nodes=%d, valid=%s)" % (
            self.name,
            self.domain,
            self.dag_size,
            self.expected_valid,
        )


class BenchmarkFactory:
    """Helper carrying a seeded RNG and fresh-name counters."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._counters: Dict[str, int] = {}

    def fresh(self, prefix: str) -> str:
        n = self._counters.get(prefix, 0)
        self._counters[prefix] = n + 1
        return "%s%d" % (prefix, n)

    def shuffle(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items
