"""The two-tier result cache and its engine/batch integration.

Covers the cache data plane (LRU, disk tier, fingerprint invalidation,
countermodel policy), the ``cached`` registry engine, and the
``solve_batch`` intra-batch dedupe — including the property the whole
layer exists to uphold: a cache hit returns exactly the verdict the
engine would have produced, with a countermodel valid for the formula
actually submitted.
"""

import json
import os

import pytest

from repro.core.result import CacheStats
from repro.core.status import Status
from repro.engine import registry
from repro.engine.contract import SolveRequest
from repro.engine.portfolio import default_members, solve_batch
from repro.logic.canonical import canonical_key, rename_symbols
from repro.logic.parser import parse_formula
from repro.logic.semantics import Interpretation, evaluate
from repro.service.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntry,
    CachedEngine,
    ResultCache,
    config_fingerprint,
    interp_from_jsonable,
    interp_to_jsonable,
)

VALID_F = "(=> (= x y) (= (f x) (f y)))"
INVALID_F = "(= (f x) (f y))"


def _interp():
    return Interpretation(
        vars={"x": 0, "y": 1},
        bools={"B0": True},
        funcs={"f": {(0,): 3, (1,): 4}},
        preds={"P": {(0,): True}},
        func_default=7,
        pred_default=True,
    )


class TestInterpSerialization:
    def test_round_trip(self):
        interp = _interp()
        data = interp_to_jsonable(interp)
        # Must be genuinely JSON-safe, not just dict-shaped.
        restored = interp_from_jsonable(json.loads(json.dumps(data)))
        assert restored == interp

    def test_empty_round_trip(self):
        interp = Interpretation()
        assert interp_from_jsonable(interp_to_jsonable(interp)) == interp


class TestConfigFingerprint:
    def _request(self, **kwargs):
        return SolveRequest(formula=parse_formula(VALID_F), **kwargs)

    def test_same_config_same_fingerprint(self):
        assert config_fingerprint("hybrid", self._request()) == (
            config_fingerprint("hybrid", self._request())
        )

    def test_engine_name_scopes_entries(self):
        req = self._request()
        assert config_fingerprint("hybrid", req) != config_fingerprint(
            "sd", req
        )

    def test_encoding_knobs_scope_entries(self):
        base = config_fingerprint("hybrid", self._request())
        assert base != config_fingerprint(
            "hybrid", self._request(sep_thold=3)
        )
        assert base != config_fingerprint(
            "hybrid", self._request(preprocess=False)
        )
        assert base != config_fingerprint(
            "hybrid", self._request(sd_ranges="ascending")
        )
        assert base != config_fingerprint(
            "hybrid", self._request(trans_budget=10)
        )
        assert base != config_fingerprint(
            "hybrid", self._request(options={"max_iterations": 5})
        )

    def test_resource_limits_do_not_scope(self):
        # Only decided verdicts are cached, and a decided verdict is
        # limit-independent — a cache warmed under one timeout must
        # serve a run under another.
        base = config_fingerprint("hybrid", self._request())
        assert base == config_fingerprint(
            "hybrid", self._request(time_limit=1.5, conflict_limit=10)
        )

    def test_volatile_options_do_not_scope(self):
        base = config_fingerprint("hybrid", self._request())
        assert base == config_fingerprint(
            "hybrid",
            self._request(options={"engine": "sd", "cache_dir": "/tmp/x"}),
        )


class TestResultCacheMemory:
    def test_miss_then_store_then_hit(self):
        cache = ResultCache()
        entry, tier = cache.lookup("k1", "fp")
        assert entry is None and tier == ""
        assert cache.store("k1", "fp", CacheEntry(status="VALID"))
        entry, tier = cache.lookup("k1", "fp")
        assert entry is not None and tier == "memory"
        assert entry.status == "VALID"
        assert cache.stats.misses == 1
        assert cache.stats.hits_memory == 1
        assert cache.stats.stores == 1

    def test_fingerprint_scopes_lookup(self):
        cache = ResultCache()
        cache.store("k1", "fp-a", CacheEntry(status="VALID"))
        entry, _ = cache.lookup("k1", "fp-b")
        assert entry is None

    def test_undecided_statuses_are_refused(self):
        cache = ResultCache()
        assert not cache.store("k", "fp", CacheEntry(status="UNKNOWN"))
        assert not cache.store(
            "k", "fp", CacheEntry(status="TRANSLATION_LIMIT")
        )
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.store("a", "fp", CacheEntry(status="VALID"))
        cache.store("b", "fp", CacheEntry(status="VALID"))
        cache.lookup("a", "fp")  # refresh a; b is now least recent
        cache.store("c", "fp", CacheEntry(status="VALID"))
        assert cache.lookup("a", "fp")[0] is not None
        assert cache.lookup("c", "fp")[0] is not None
        assert cache.lookup("b", "fp")[0] is None

    def test_invalid_without_model_misses_when_model_wanted(self):
        cache = ResultCache()
        cache.store("k", "fp", CacheEntry(status="INVALID"))
        assert cache.lookup("k", "fp", want_countermodel=True)[0] is None
        entry, _ = cache.lookup("k", "fp", want_countermodel=False)
        assert entry is not None
        # A later, richer entry replaces the thin one and satisfies both.
        cache.store(
            "k", "fp", CacheEntry(status="INVALID", countermodel=_interp())
        )
        assert cache.lookup("k", "fp", want_countermodel=True)[0] is not None


class TestResultCacheDisk:
    def test_disk_survives_new_cache_instance(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ResultCache(disk_dir=disk)
        first.store(
            "k", "fp", CacheEntry(status="INVALID", countermodel=_interp())
        )
        # Fresh instance = process restart: memory empty, disk warm.
        second = ResultCache(disk_dir=disk)
        entry, tier = second.lookup("k", "fp")
        assert tier == "disk"
        assert entry.countermodel == _interp()
        # The disk hit is promoted to memory.
        assert second.lookup("k", "fp")[1] == "memory"

    def test_disk_fingerprint_mismatch_is_a_miss(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ResultCache(disk_dir=disk)
        first.store("k", "fp-old", CacheEntry(status="VALID"))
        second = ResultCache(disk_dir=disk)
        assert second.lookup("k", "fp-new")[0] is None

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(disk_dir=disk)
        cache.store("k", "fp", CacheEntry(status="VALID"))
        (path,) = [
            os.path.join(disk, name)
            for name in os.listdir(disk)
            if name.endswith(".json")
        ]
        with open(path, "w") as fp:
            fp.write("{not json")
        fresh = ResultCache(disk_dir=disk)
        assert fresh.lookup("k", "fp")[0] is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(disk_dir=disk)
        cache.store("k", "fp", CacheEntry(status="VALID"))
        (path,) = [
            os.path.join(disk, name)
            for name in os.listdir(disk)
            if name.endswith(".json")
        ]
        with open(path) as fp:
            data = json.load(fp)
        data["schema"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w") as fp:
            json.dump(data, fp)
        fresh = ResultCache(disk_dir=disk)
        assert fresh.lookup("k", "fp")[0] is None

    def test_clear_disk(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ResultCache(disk_dir=disk)
        cache.store("k", "fp", CacheEntry(status="VALID"))
        cache.clear(disk=True)
        assert len(cache) == 0
        assert ResultCache(disk_dir=disk).lookup("k", "fp")[0] is None


class TestCachedEngine:
    def test_registered_and_excluded_from_portfolio(self):
        assert "cached" in registry.list_engines()
        assert "cached" not in default_members()

    def test_miss_then_hit_same_verdict(self):
        engine = CachedEngine(cache=ResultCache())
        f = parse_formula(VALID_F)
        cold = engine.decide(f)
        warm = engine.decide(f)
        assert cold.status == Status.VALID
        assert warm.status == Status.VALID
        assert cold.stats.cache.misses == 1
        assert cold.stats.cache.stores == 1
        assert warm.stats.cache.hits_memory == 1
        assert any(s.name == "cache" for s in cold.stats.stages)
        assert any(s.name == "cache" for s in warm.stats.stages)

    def test_alpha_renamed_hit_lifts_countermodel(self):
        engine = CachedEngine(cache=ResultCache())
        f = parse_formula(INVALID_F)
        g = rename_symbols(f, vars={"x": "p", "y": "q"}, funcs={"f": "h"})
        cold = engine.decide(f)
        warm = engine.decide(g)
        assert cold.status == Status.INVALID
        assert warm.status == Status.INVALID
        assert warm.stats.cache.hits == 1
        # Each countermodel must falsify the formula it was returned for.
        assert evaluate(f, cold.counterexample) is False
        assert evaluate(g, warm.counterexample) is False
        # The lifted model speaks the second formula's vocabulary.
        assert set(warm.counterexample.funcs) == {"h"}

    def test_inner_engine_option(self):
        engine = CachedEngine(cache=ResultCache())
        out = engine.decide(
            parse_formula(VALID_F), options={"engine": "sd"}
        )
        assert out.status == Status.VALID
        assert out.winner == "sd"

    def test_inner_engines_do_not_share_entries(self):
        cache = ResultCache()
        engine = CachedEngine(cache=cache)
        f = parse_formula(VALID_F)
        first = engine.decide(f, options={"engine": "hybrid"})
        second = engine.decide(f, options={"engine": "sd"})
        assert first.stats.cache.misses == 1
        assert second.stats.cache.misses == 1
        assert cache.stats.stores == 2

    def test_disk_tier_via_cache_dir_option(self, tmp_path):
        disk = str(tmp_path / "cache")
        f = parse_formula(VALID_F)
        cold = CachedEngine().decide(f, options={"cache_dir": disk})
        assert cold.status == Status.VALID
        assert os.listdir(disk)
        # A brand-new engine + fresh default cache would miss in memory;
        # pin the disk hit through an explicit fresh ResultCache.
        warm = CachedEngine(cache=ResultCache(disk_dir=disk)).decide(f)
        assert warm.status == Status.VALID
        assert warm.stats.cache.hits_disk == 1


class TestSolveBatchDedupe:
    def _formulas(self):
        f = parse_formula(VALID_F)
        f_renamed = rename_symbols(
            f, vars={"x": "a", "y": "b"}, funcs={"f": "g"}
        )
        g = parse_formula(INVALID_F)
        g_renamed = rename_symbols(g, vars={"x": "s", "y": "t"})
        return [f, g, f_renamed, g_renamed]

    def test_dedupe_preserves_order_and_verdicts(self):
        outcomes = solve_batch(
            self._formulas(), engines=["hybrid"], jobs=1
        )
        statuses = [o.status for o in outcomes]
        assert statuses == [
            Status.VALID,
            Status.INVALID,
            Status.VALID,
            Status.INVALID,
        ]
        assert outcomes[2].stats.cache.dedupes == 1
        assert outcomes[3].stats.cache.dedupes == 1
        assert (outcomes[0].stats.cache or CacheStats()).dedupes == 0

    def test_deduped_countermodels_are_lifted(self):
        formulas = self._formulas()
        outcomes = solve_batch(formulas, engines=["hybrid"], jobs=1)
        for formula, outcome in zip(formulas, outcomes):
            if outcome.status == Status.INVALID:
                assert outcome.counterexample is not None
                assert evaluate(formula, outcome.counterexample) is False

    def test_empty_batch(self):
        assert solve_batch([], engines=["hybrid"]) == []


class TestCacheNeverChangesVerdict:
    def test_on_suite_slice(self):
        from repro.benchgen.suite import suite

        engine = CachedEngine(cache=ResultCache())
        hybrid = registry.get("hybrid")
        for bench in suite()[:6]:
            bare = hybrid.decide(bench.formula)
            cold = engine.decide(bench.formula)
            warm = engine.decide(bench.formula)
            assert bare.status == cold.status == warm.status
            assert warm.stats.cache.hits == 1
            assert canonical_key(bench.formula) == bench.canonical_key
