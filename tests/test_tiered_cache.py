"""Tiered StageCache: memory -> disk -> compute with per-tier accounting."""

import threading

import pytest

from repro.engine import (
    StageCache,
    StageCounter,
    StageEvent,
    TIER_COMPUTE,
    TIER_DISK,
    TIER_MEMORY,
)
from repro.engine.artifacts import ClassificationArtifact
from repro.engine import cache as cache_module
from repro.engine.cache import StageStats
from repro.persist import ArtifactStore

STAGE = "classify"


def _artifact(key: str) -> ClassificationArtifact:
    return ClassificationArtifact(key=key, label=f"label-{key}", confidence=0.5)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestTierResolution:
    def test_memory_hit(self, store):
        cache = StageCache(disk_store=store)
        cache.store(STAGE, "k", _artifact("k"))
        artifact, tier = cache.lookup_tier(STAGE, "k")
        assert tier == TIER_MEMORY
        assert artifact.label == "label-k"

    def test_disk_hit_after_process_restart(self, store):
        # A second cache over the same store models a restarted process:
        # empty memory, warm disk.
        StageCache(disk_store=store).store(STAGE, "k", _artifact("k"))
        fresh = StageCache(disk_store=store)
        artifact, tier = fresh.lookup_tier(STAGE, "k")
        assert tier == TIER_DISK
        assert artifact.label == "label-k"

    def test_disk_hit_promotes_into_memory(self, store):
        StageCache(disk_store=store).store(STAGE, "k", _artifact("k"))
        fresh = StageCache(disk_store=store)
        fresh.lookup_tier(STAGE, "k")
        _, tier = fresh.lookup_tier(STAGE, "k")
        assert tier == TIER_MEMORY
        assert fresh.stats[STAGE].disk_hits == 1
        assert fresh.stats[STAGE].memory_hits == 1

    def test_full_miss(self, store):
        cache = StageCache(disk_store=store)
        artifact, tier = cache.lookup_tier(STAGE, "nope")
        assert artifact is None
        assert tier == TIER_COMPUTE
        assert cache.stats[STAGE].misses == 1

    def test_resolve_tier_computes_once_then_serves_memory(self, store):
        cache = StageCache(disk_store=store)
        calls = []

        def compute():
            calls.append(1)
            return _artifact("k")

        _, first = cache.resolve_tier(STAGE, "k", compute)
        _, second = cache.resolve_tier(STAGE, "k", compute)
        assert (first, second) == (TIER_COMPUTE, TIER_MEMORY)
        assert len(calls) == 1

    def test_compute_writes_through_to_disk(self, store):
        cache = StageCache(disk_store=store)
        cache.resolve_tier(STAGE, "k", lambda: _artifact("k"))
        assert (STAGE, "k") in store

    def test_eviction_then_disk_rehit(self, store, monkeypatch):
        # Memory LRU evicts "a"; the disk tier still serves it.
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 1)
        cache = StageCache(disk_store=store)
        cache.store(STAGE, "a", _artifact("a"))
        cache.store(STAGE, "b", _artifact("b"))
        assert (STAGE, "a") not in cache
        artifact, tier = cache.lookup_tier(STAGE, "a")
        assert tier == TIER_DISK
        assert artifact.label == "label-a"

    def test_without_disk_store_behaves_as_before(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 1)
        cache = StageCache()
        cache.store(STAGE, "a", _artifact("a"))
        cache.store(STAGE, "b", _artifact("b"))
        artifact, tier = cache.lookup_tier(STAGE, "a")
        assert (artifact, tier) == (None, TIER_COMPUTE)


class TestInvalidation:
    def test_clear_drops_memory_not_disk(self, store):
        cache = StageCache(disk_store=store)
        cache.store(STAGE, "k", _artifact("k"))
        cache.clear()
        assert len(cache) == 0
        _, tier = cache.lookup_tier(STAGE, "k")
        assert tier == TIER_DISK


class TestAccounting:
    def test_hits_property_sums_tiers(self):
        stats = StageStats(memory_hits=3, disk_hits=2, misses=5)
        assert stats.hits == 5
        assert stats.lookups == 10
        assert stats.hit_rate == 0.5

    def test_snapshot_reports_per_tier(self, store):
        StageCache(disk_store=store).store(STAGE, "k", _artifact("k"))
        fresh = StageCache(disk_store=store)
        fresh.lookup_tier(STAGE, "k")   # disk
        fresh.lookup_tier(STAGE, "k")   # memory
        fresh.lookup_tier(STAGE, "x")   # miss
        assert fresh.snapshot() == {
            STAGE: {
                "hits": 2,
                "memory_hits": 1,
                "disk_hits": 1,
                "misses": 1,
                "hit_rate": 2 / 3,
            }
        }


class TestEventsAndCounter:
    def test_cache_hit_derives_from_tier(self):
        assert StageEvent("s", "k", tier=TIER_MEMORY).cache_hit
        assert StageEvent("s", "k", tier=TIER_DISK).cache_hit
        assert not StageEvent("s", "k", tier=TIER_COMPUTE).cache_hit

    def test_counter_breaks_out_disk_hits(self):
        counter = StageCounter()
        counter(StageEvent("s", "k1", tier=TIER_COMPUTE))
        counter(StageEvent("s", "k1", tier=TIER_MEMORY))
        counter(StageEvent("s", "k1", tier=TIER_DISK))
        assert counter.executions == {"s": 1}
        assert counter.hits == {"s": 2}
        assert counter.disk_hits == {"s": 1}
        assert counter.total("s") == 3
        counter.reset()
        assert counter.disk_hits == {}


class TestConcurrency:
    def test_threads_racing_through_disk_tier(self, store, monkeypatch):
        # Many threads resolving the same keys over a shared disk tier
        # must neither crash nor corrupt the store.
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 4)
        cache = StageCache(disk_store=store)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for round_number in range(20):
                    key = f"k{round_number % 8}"
                    artifact, _ = cache.resolve_tier(
                        STAGE, key, lambda k=key: _artifact(k)
                    )
                    assert artifact.label == f"label-{key}"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.counters()["errors"] == 0
        for round_number in range(8):
            key = f"k{round_number}"
            assert store.get(STAGE, key).label == f"label-{key}"
