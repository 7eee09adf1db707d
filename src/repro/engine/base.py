"""The :class:`Engine` abstraction and its capability metadata.

An engine is one complete decision procedure behind the uniform
``SolveRequest → SolveOutcome`` contract.  Capability metadata lets
callers pick engines mechanically: the portfolio driver skips engines
that cannot honour a countermodel request, the experiment runner knows
which engines accept a wall-clock budget, and ``repro check`` can warn
before handing a huge formula to a bounded oracle.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Optional

from ..logic.terms import Formula
from .contract import SolveRequest, SolveOutcome

__all__ = ["EngineCapabilities", "Engine"]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can and cannot do.

    ``complete``
        Decides every input given unbounded resources.
    ``bounded``
        May refuse inputs below any resource limit (the brute-force
        oracle gives up as soon as its enumeration space exceeds its
        budget, no matter how much time is available).
    ``countermodels``
        Can produce a falsifying interpretation for INVALID inputs.
    ``time_limit`` / ``conflict_limit``
        Honours the corresponding :class:`SolveRequest` knob.
    """

    description: str = ""
    complete: bool = True
    bounded: bool = False
    countermodels: bool = True
    time_limit: bool = True
    conflict_limit: bool = False


class Engine(abc.ABC):
    """One decision procedure behind the shared contract.

    Subclasses set ``name`` (the registry key) and ``capabilities`` and
    implement :meth:`solve`.  Engines must be stateless across calls —
    the portfolio driver instantiates them once and reuses them from
    worker processes.
    """

    name: str = ""
    capabilities: EngineCapabilities = EngineCapabilities()

    @abc.abstractmethod
    def solve(self, request: SolveRequest) -> SolveOutcome:
        """Decide ``request.formula``; never raises on resource limits."""

    def decide(
        self,
        formula: Formula,
        time_limit: Optional[float] = None,
        **kwargs: Any,
    ) -> SolveOutcome:
        """Convenience wrapper: build the request inline."""
        return self.solve(
            SolveRequest(formula=formula, time_limit=time_limit, **kwargs)
        )

    def __repr__(self) -> str:
        return "<Engine %s: %s>" % (self.name, self.capabilities.description)
