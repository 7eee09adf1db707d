"""The :class:`Engine` abstraction.

An engine is one complete decision procedure behind the uniform
``SolveRequest → SolveOutcome`` contract.  Callers pick engines by
registry name (:mod:`repro.engine.registry`).
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from ..logic.terms import Formula
from .contract import SolveRequest, SolveOutcome

__all__ = ["Engine"]


class Engine(abc.ABC):
    """One decision procedure behind the shared contract.

    Subclasses set ``name`` (the registry key) and implement
    :meth:`solve`.  Engines must be stateless across calls — the
    portfolio driver instantiates them once and reuses them from worker
    processes.
    """

    name: str = ""

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
        return "<Engine %s>" % self.name
