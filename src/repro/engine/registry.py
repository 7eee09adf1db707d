"""The engine registry: the single dispatch point for every front end.

``cli.py``, ``fuzz.oracle`` and ``experiments.runner`` all resolve
procedures here instead of importing solver modules directly, so adding
an engine (or swapping an implementation) is a one-file change::

    from repro.engine import registry

    outcome = registry.get("hybrid").decide(formula)
    registry.list_engines()   # priority order, portfolio included

Registration order defines the default priority used by the portfolio
driver's deterministic tie-break.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from .base import Engine

__all__ = [
    "register",
    "unregister",
    "get",
    "list_engines",
]

_REGISTRY: Dict[str, Engine] = {}
_BUILTINS_LOADED = False
#: One reentrant lock guards both the loaded flag and every registry
#: mutation: ``register`` is called from ``_ensure_builtins`` while the
#: lock is already held, and from user code (tests, plugins) while serve
#: worker threads may be reading concurrently.
_REGISTRY_LOCK = threading.RLock()


def _ensure_builtins() -> None:
    """Populate the registry on first use (deferred to avoid cycles).

    Thread-safe double-checked locking: the loaded flag is only raised
    *after* every builtin is registered, and registration runs under the
    lock — concurrent first callers (the serve worker threads) must
    never observe a partial registry.  ``RC102`` (the static-analysis
    suite) checks the flag-last ordering.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _REGISTRY_LOCK:
        if _BUILTINS_LOADED:
            return
        from . import cube as _cube
        from . import engines as _engines
        from . import portfolio as _portfolio
        from ..service import cache as _cache

        for factory in _engines.BUILTIN_ENGINES:
            register(factory())
        register(_cube.CubeEngine())
        register(_portfolio.PortfolioEngine())
        register(_cache.CachedEngine())
        _BUILTINS_LOADED = True


def register(engine: Engine) -> Engine:
    """Add ``engine`` under ``engine.name``; appended to priority order."""
    if not engine.name:
        raise ValueError("engine has no name: %r" % (engine,))
    with _REGISTRY_LOCK:
        if engine.name in _REGISTRY:
            raise ValueError("engine %r is already registered" % engine.name)
        _REGISTRY[engine.name] = engine
    return engine


def unregister(name: str) -> None:
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def get(name: str) -> Engine:
    """The engine registered under ``name`` (KeyError lists known names)."""
    _ensure_builtins()
    try:
        with _REGISTRY_LOCK:
            return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown engine %r; registered: %s"
            % (name, ", ".join(list_engines()))
        ) from None


def list_engines() -> List[str]:
    """Registered engine names in priority (registration) order."""
    _ensure_builtins()
    # Snapshot under the lock: list(dict) can raise RuntimeError if a
    # concurrent register() resizes the dict mid-iteration.
    with _REGISTRY_LOCK:
        return list(_REGISTRY)
