"""StageCache under concurrent access.

The serving worker pool shares one :class:`repro.engine.StageCache`
across N engine views; these tests hammer a shared cache from many
threads and pin down the thread-safety contract documented in
:mod:`repro.engine.cache`: consistent counters, uncorrupted artifacts,
bounded size -- with duplicate computation of a concurrently-missed key
allowed (content-addressed artifacts make it benign).
"""

import threading

from repro.engine import cache as cache_module
from repro.engine.cache import TIER_COMPUTE, StageCache

THREADS = 8
ROUNDS = 300


def _hammer(cache, thread_index, errors, compute_log):
    for round_index in range(ROUNDS):
        key = f"key-{round_index % 25}"
        stage = f"stage-{round_index % 3}"
        expected = f"{stage}:{key}:artifact"

        def compute():
            compute_log.append((stage, key))
            return expected

        artifact, _tier = cache.resolve_tier(stage, key, compute)
        if artifact != expected:
            errors.append(
                f"thread {thread_index} got {artifact!r} for ({stage}, {key})"
            )


def test_shared_cache_is_consistent_under_contention():
    cache = StageCache()
    errors: list[str] = []
    compute_log: list[tuple[str, str]] = []
    threads = [
        threading.Thread(target=_hammer, args=(cache, i, errors, compute_log))
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # No thread ever observed a wrong/torn artifact.
    assert errors == []

    # Counter consistency: every resolve is exactly one lookup, and the
    # per-stage tallies add up to the total traffic.
    total_lookups = sum(s.lookups for s in cache.stats.values())
    assert total_lookups == THREADS * ROUNDS

    # Every distinct (stage, key) is cached and correct afterwards.
    for round_index in range(25):
        for stage_index in range(3):
            stage = f"stage-{stage_index}"
            key = f"key-{round_index % 25}"
            value, tier = cache.lookup_tier(stage, key)
            if tier != TIER_COMPUTE:
                assert value == f"{stage}:{key}:artifact"

    # Duplicate computes are allowed but bounded: never more than one
    # per (thread, distinct key), and far fewer than the lookups.
    assert len(compute_log) <= THREADS * 75
    assert len(compute_log) < total_lookups


def test_eviction_bound_holds_under_contention(monkeypatch):
    monkeypatch.setattr(cache_module, "MAX_ENTRIES", 16)
    cache = StageCache()
    stop = threading.Event()
    errors = []

    def writer(offset):
        index = 0
        while not stop.is_set():
            key = f"k{offset}-{index % 40}"
            value, _ = cache.resolve_tier("stage", key, lambda k=key: f"v:{k}")
            if value != f"v:{key}":
                errors.append((key, value))
            if len(cache) > 16:
                errors.append(("overflow", len(cache)))
            index += 1
            if index >= 500:
                break

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()

    assert errors == []
    assert len(cache) <= 16
    snapshot = cache.snapshot()
    stats = snapshot["stage"]
    assert stats["hits"] + stats["misses"] == 6 * 500


def test_clear_and_invalidate_race_free():
    cache = StageCache()
    done = threading.Event()
    errors = []

    def resolver():
        index = 0
        while not done.is_set():
            key = f"k{index % 50}"
            value, _ = cache.resolve_tier("a", key, lambda k=key: f"v:{k}")
            if value != f"v:{key}":
                errors.append(value)
            index += 1

    def invalidator():
        try:
            for _ in range(200):
                cache.clear()
        finally:
            done.set()

    threads = [threading.Thread(target=resolver) for _ in range(4)]
    threads.append(threading.Thread(target=invalidator))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
