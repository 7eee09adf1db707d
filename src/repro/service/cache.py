"""Canonicalization-keyed two-tier result cache.

The cache maps the *alpha-invariant canonical key* of a formula
(:func:`repro.logic.canonical.canonicalize`) to a decided verdict, so
every consistent renaming of a formula shares one entry.  The key reads
each ``=`` in its written argument order: formulas that differ only in
how an equation is written get separate entries, a missed hit that never
changes a verdict.  Entries are scoped by a *configuration fingerprint*
— engine name plus every encoding knob that can change the
verdict-relevant behaviour — so a cache populated under one
configuration self-invalidates under another instead of serving stale
answers.

Two tiers:

* an in-memory LRU (``max_entries``, default 4096) for the hot path;
* an optional on-disk store (``disk_dir``, conventionally
  ``results/cache/``) written atomically, one JSON file per
  (key, fingerprint) pair, surviving process restarts.  Disk hits are
  promoted into the memory tier.

Only ``VALID`` and ``INVALID`` verdicts are cached: they are theorems
about the formula and hold regardless of the resource limits of the run
that produced them.  ``UNKNOWN`` / limit outcomes depend on budgets and
are never stored.  Countermodels are stored in *canonical* names and
lifted back through each requester's renaming map
(:func:`repro.logic.canonical.lift_interpretation`), so a hit can serve
a countermodel for a renaming the cache has never literally seen.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.result import CacheStats, DecisionStats, StageRecord
from ..core.status import Status
from ..engine.base import Engine
from ..engine.contract import SolveRequest, SolveOutcome
from ..logic.canonical import (
    CANONICAL_VERSION,
    CanonicalForm,
    canonicalize,
    lift_interpretation,
)
from ..logic.semantics import Interpretation

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheEntry",
    "CachedEngine",
    "ResultCache",
    "config_fingerprint",
    "default_cache",
    "interp_from_jsonable",
    "interp_to_jsonable",
    "solve_cached",
]

#: Bump when the on-disk entry layout changes; stale files then miss on
#: fingerprint comparison instead of being misread.
CACHE_SCHEMA_VERSION = 1

#: Conventional location of the disk tier (relative to the cwd).
DEFAULT_CACHE_DIR = os.path.join("results", "cache")

#: The cached engine's own options, excluded from the fingerprint: they
#: pick the inner engine (already named in the fingerprint) and where
#: the disk tier lives, neither of which changes a verdict.
_VOLATILE_OPTIONS = frozenset({"engine", "cache_dir"})


def interp_to_jsonable(interp: Interpretation) -> Dict[str, Any]:
    """Flatten an :class:`Interpretation` to JSON-safe types.

    Function/predicate tables are keyed by argument *tuples*, which JSON
    cannot express; they become ``[args_list, value]`` pairs.
    """
    return {
        "vars": dict(interp.vars),
        "bools": dict(interp.bools),
        "funcs": {
            name: [[list(args), value] for args, value in sorted(table.items())]
            for name, table in interp.funcs.items()
        },
        "preds": {
            name: [[list(args), value] for args, value in sorted(table.items())]
            for name, table in interp.preds.items()
        },
        "func_default": interp.func_default,
        "pred_default": interp.pred_default,
    }


def interp_from_jsonable(data: Dict[str, Any]) -> Interpretation:
    """Inverse of :func:`interp_to_jsonable`."""
    return Interpretation(
        vars={name: int(value) for name, value in data.get("vars", {}).items()},
        bools={
            name: bool(value) for name, value in data.get("bools", {}).items()
        },
        funcs={
            name: {tuple(args): int(value) for args, value in pairs}
            for name, pairs in data.get("funcs", {}).items()
        },
        preds={
            name: {tuple(args): bool(value) for args, value in pairs}
            for name, pairs in data.get("preds", {}).items()
        },
        func_default=int(data.get("func_default", 0)),
        pred_default=bool(data.get("pred_default", False)),
    )


def config_fingerprint(engine_name: str, request: SolveRequest) -> str:
    """Digest of everything besides the formula that scopes a verdict.

    Two requests share a fingerprint exactly when a cached VALID/INVALID
    verdict for one is trustworthy for the other: same engine, same
    encoding knobs, same schema and canonicalization versions.  The
    resource limit (``time_limit``) is deliberately *not* part of the
    fingerprint — only decided verdicts are stored, and a decided
    verdict is limit-independent.
    """
    options = {
        key: request.options[key]
        for key in sorted(request.options)
        if key not in _VOLATILE_OPTIONS
    }
    parts = [
        "cache-schema:%d" % CACHE_SCHEMA_VERSION,
        "canonical:%d" % CANONICAL_VERSION,
        "engine:%s" % engine_name,
        "sep_thold:%s" % request.sep_thold,
        "sd_ranges:%s" % request.sd_ranges,
        "trans_budget:%s" % request.trans_budget,
        "preprocess:%s" % request.preprocess,
        "options:%s" % json.dumps(options, sort_keys=True, default=repr),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass
class CacheEntry:
    """One cached verdict, countermodel in canonical names."""

    status: str
    countermodel: Optional[Interpretation] = None
    engine: str = ""

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "countermodel": (
                interp_to_jsonable(self.countermodel)
                if self.countermodel is not None
                else None
            ),
            "engine": self.engine,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "CacheEntry":
        model = data.get("countermodel")
        return cls(
            status=str(data["status"]),
            countermodel=(
                interp_from_jsonable(model) if model is not None else None
            ),
            engine=str(data.get("engine", "")),
        )


class ResultCache:
    """Thread-safe two-tier (memory LRU + optional disk) verdict store.

    ``lookup``/``store`` take both the canonical key and the
    configuration fingerprint; a disk file whose recorded fingerprint
    disagrees (schema bump, different engine build of the same name,
    changed encoding default) is treated as a miss, which is how stale
    entries self-invalidate without an explicit flush.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        disk_dir: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._memory: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the disk tier)."""
        with self._lock:
            self._memory.clear()
            if disk and self.disk_dir is not None and os.path.isdir(self.disk_dir):
                for name in os.listdir(self.disk_dir):
                    if name.endswith(".json"):
                        try:
                            os.unlink(os.path.join(self.disk_dir, name))
                        except OSError:
                            pass

    def _disk_path(self, key: str, fingerprint: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(
            self.disk_dir, "%s-%s.json" % (key[:40], fingerprint[:16])
        )

    def _usable(self, entry: CacheEntry, want_countermodel: bool) -> bool:
        # An INVALID verdict without a stored countermodel cannot satisfy
        # a caller who wants one — treat as a miss so the solver runs and
        # the richer entry replaces the thin one.
        if (
            want_countermodel
            and entry.status == str(Status.INVALID)
            and entry.countermodel is None
        ):
            return False
        return True

    def lookup(
        self,
        key: str,
        fingerprint: str,
        want_countermodel: bool = True,
    ) -> Tuple[Optional[CacheEntry], str]:
        """Return ``(entry, tier)``; tier is ``"memory"``/``"disk"``/``""``."""
        slot = (key, fingerprint)
        with self._lock:
            entry = self._memory.get(slot)
            if entry is not None and self._usable(entry, want_countermodel):
                self._memory.move_to_end(slot)
                self.stats.hits_memory += 1
                return entry, "memory"
            entry = self._disk_lookup(key, fingerprint)
            if entry is not None and self._usable(entry, want_countermodel):
                self._remember_locked(slot, entry)
                self.stats.hits_disk += 1
                return entry, "disk"
            self.stats.misses += 1
            return None, ""

    def _disk_lookup(
        self, key: str, fingerprint: str
    ) -> Optional[CacheEntry]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key, fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            data.get("schema") != CACHE_SCHEMA_VERSION
            or data.get("key") != key
            or data.get("fingerprint") != fingerprint
        ):
            return None
        try:
            return CacheEntry.from_jsonable(data["entry"])
        except (KeyError, TypeError, ValueError):
            return None

    def _remember_locked(
        self, slot: Tuple[str, str], entry: CacheEntry
    ) -> None:
        """Insert into the memory LRU; caller must hold ``self._lock``
        (the ``_locked`` suffix is the convention rule RC101 honours)."""
        self._memory[slot] = entry
        self._memory.move_to_end(slot)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def store(self, key: str, fingerprint: str, entry: CacheEntry) -> bool:
        """Record a decided verdict; refuses undecided statuses."""
        if entry.status not in (str(Status.VALID), str(Status.INVALID)):
            return False
        with self._lock:
            self._remember_locked((key, fingerprint), entry)
            self.stats.stores += 1
            if self.disk_dir is not None:
                self._disk_store(key, fingerprint, entry)
            return True

    def _disk_store(
        self, key: str, fingerprint: str, entry: CacheEntry
    ) -> None:
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "fingerprint": fingerprint,
            "entry": entry.to_jsonable(),
        }
        path = self._disk_path(key, fingerprint)
        try:
            fd, tmp_path = tempfile.mkstemp(
                prefix=".cache-", suffix=".tmp", dir=self.disk_dir
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # The disk tier is best-effort: a full or read-only disk must
            # not fail the solve.
            pass


def solve_cached(
    request: SolveRequest,
    solver: Callable[[SolveRequest], SolveOutcome],
    cache: ResultCache,
    fingerprint: str,
    engine_label: str = "cached",
) -> SolveOutcome:
    """Canonicalize, look up, solve on miss, store, lift the countermodel.

    ``solver`` is called with the request rebased onto the *canonical*
    representative, so any countermodel it returns is already in
    canonical names and can be stored directly; the outcome handed back
    to the caller is always translated to the original vocabulary.
    """
    start = time.perf_counter()
    form = canonicalize(request.formula)
    local = CacheStats()
    entry, tier = cache.lookup(
        form.key, fingerprint, want_countermodel=request.want_countermodel
    )
    if entry is not None:
        if tier == "memory":
            local.hits_memory += 1
        else:
            local.hits_disk += 1
        seconds = time.perf_counter() - start
        stats = DecisionStats(method=engine_label)
        stats.cache = local
        stats.stages.append(
            StageRecord(
                name="cache",
                seconds=seconds,
                counters={
                    "hit": 1,
                    "hit_memory": local.hits_memory,
                    "hit_disk": local.hits_disk,
                },
            )
        )
        countermodel = None
        if entry.countermodel is not None and request.want_countermodel:
            countermodel = lift_interpretation(entry.countermodel, form)
        return SolveOutcome(
            engine=engine_label,
            status=Status(entry.status),
            stats=stats,
            counterexample=countermodel,
            detail="cache hit (%s tier, solved by %s)" % (tier, entry.engine),
            wall_seconds=seconds,
            winner=entry.engine or None,
        )

    local.misses += 1
    lookup_seconds = time.perf_counter() - start
    outcome = solver(replace(request, formula=form.formula))
    solved_by = outcome.winner or outcome.engine
    if outcome.status in (Status.VALID, Status.INVALID):
        stored = cache.store(
            form.key,
            fingerprint,
            CacheEntry(
                status=str(outcome.status),
                countermodel=outcome.counterexample,
                engine=solved_by,
            ),
        )
        if stored:
            local.stores += 1
    if outcome.counterexample is not None:
        outcome.counterexample = lift_interpretation(
            outcome.counterexample, form
        )
    if outcome.stats.cache is None:
        outcome.stats.cache = local
    else:
        outcome.stats.cache.merge(local)
    outcome.stats.stages.append(
        StageRecord(
            name="cache",
            seconds=lookup_seconds,
            counters={"miss": 1, "store": local.stores},
        )
    )
    outcome.engine = engine_label
    outcome.winner = solved_by or None
    outcome.wall_seconds = time.perf_counter() - start
    return outcome


_default_caches: Dict[Optional[str], ResultCache] = {}
_default_caches_lock = threading.Lock()


def default_cache(disk_dir: Optional[str] = None) -> ResultCache:
    """Process-wide shared cache, one per disk directory (``None`` =
    memory-only)."""
    with _default_caches_lock:
        cache = _default_caches.get(disk_dir)
        if cache is None:
            cache = ResultCache(disk_dir=disk_dir)
            _default_caches[disk_dir] = cache
        return cache


class CachedEngine(Engine):
    """Registry wrapper adding the result cache in front of any engine.

    ``options["engine"]`` picks the inner engine (default ``hybrid``);
    ``options["cache_dir"]`` enables the disk tier at that path.  It is
    excluded from the default portfolio roster (a cache in a race adds
    nothing but a second canonicalization).
    """

    name = "cached"

    DEFAULT_INNER = "hybrid"

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self._cache = cache

    def _resolve_cache(self, request: SolveRequest) -> ResultCache:
        if self._cache is not None:
            return self._cache
        disk_dir = request.options.get("cache_dir") or os.environ.get(
            "REPRO_CACHE_DIR"
        )
        return default_cache(disk_dir)

    def solve(self, request: SolveRequest) -> SolveOutcome:
        from ..engine import registry

        inner_name = request.options.get("engine", self.DEFAULT_INNER)
        inner = registry.get(inner_name)
        cache = self._resolve_cache(request)
        fingerprint = config_fingerprint(inner_name, request)
        return solve_cached(
            request,
            inner.solve,
            cache,
            fingerprint,
            engine_label=self.name,
        )
