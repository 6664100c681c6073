"""Tiered per-stage memoization with per-tier hit/miss accounting.

:class:`StageCache` is the engine's cache: a memory LRU keyed by
``(stage name, content-hash key)``, optionally backed by a durable disk
tier (any object with ``get(stage, key) -> artifact | None`` and
``put(stage, key, artifact)``, in practice
:class:`repro.persist.ArtifactStore`).  Lookups fall through
memory -> disk -> compute; disk hits are promoted into the memory LRU,
and computed artifacts are written through to both tiers.  Per-stage
statistics distinguish the tiers so :meth:`StageCache.snapshot` and the
serve metrics can report memory vs disk vs compute.

The cache still supports sharing across several ``WiMi`` instances
(the experiment runner's classifier sweeps reuse calibration and
denoising artifacts this way -- stage keys embed the stage-relevant
config fields, so sharing is always safe).

Thread-safety contract (the serving worker pool relies on it): all
in-memory bookkeeping -- the LRU dict, per-stage counters, snapshots
and invalidation -- is guarded by one lock, so any number of threads
may share a cache.  Disk I/O and ``compute`` deliberately run *outside*
the lock; two threads missing the same key concurrently may both
compute it (the artifacts are content-addressed, so the duplicate is
identical and the last store wins), but no thread ever observes a torn
entry or inconsistent counters.  The disk tier guarantees its own
atomicity (tmp + rename), which additionally makes the combination
safe across *processes*.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

#: A cache miss sentinel distinct from any artifact.
_MISSING = object()

#: Tier labels carried by :class:`StageEvent` and the stats snapshot.
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_COMPUTE = "compute"


@dataclass
class StageStats:
    """Per-tier hit/miss counters of one stage.

    ``hits`` (all tiers combined) is kept as a property so existing
    consumers -- tests and perf benchmarks -- keep reading the same
    number they always did.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """Cache hits across every tier (memory + disk)."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total cache lookups for the stage."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class StageEvent:
    """One stage resolution, delivered to engine hooks.

    Attributes:
        stage: Stage name (see :mod:`repro.engine.stages`).
        key: Content-hash cache key of the artifact.
        cache_hit: True when the artifact came from any cache tier;
            False when the stage actually executed.
        tier: Which tier satisfied the resolution -- ``"memory"``,
            ``"disk"`` or ``"compute"``.  Defaults from ``cache_hit``
            (hit -> memory) so pre-tier call sites and tests that build
            events by hand stay valid.
    """

    stage: str
    key: str
    cache_hit: bool
    tier: str = ""

    def __post_init__(self):
        if not self.tier:
            object.__setattr__(
                self, "tier", TIER_MEMORY if self.cache_hit else TIER_COMPUTE
            )


class StageCache:
    """Tiered artifact cache keyed by ``(stage, key)`` with per-tier stats.

    Args:
        max_entries: Memory entries kept before least-recently-used
            eviction.  The artifacts are small (per-subcarrier vectors,
            one denoised cube per trace), so a few thousand entries
            cover realistic experiment sweeps.
        disk_store: Optional durable tier consulted on memory misses
            and written through on computes.  Must expose
            ``get(stage, key)`` returning an artifact or None and
            ``put(stage, key, artifact)``; read failures must surface
            as None (a miss), never an exception.
    """

    def __init__(self, max_entries: int = 4096, disk_store: Any = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.disk_store = disk_store
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._stats: dict[str, StageStats] = {}

    # ------------------------------------------------------------------

    def lookup_tier(self, stage: str, key: str) -> tuple[Any, str]:
        """``(artifact, tier)`` where tier is memory/disk/compute.

        ``"compute"`` means a full miss (artifact is None).  Records the
        outcome in the stage's per-tier statistics.  The disk read runs
        outside the lock.
        """
        with self._lock:
            stats = self._stats.setdefault(stage, StageStats())
            value = self._entries.get((stage, key), _MISSING)
            if value is not _MISSING:
                stats.memory_hits += 1
                self._entries.move_to_end((stage, key))
                return value, TIER_MEMORY
        if self.disk_store is not None:
            artifact = self.disk_store.get(stage, key)
            if artifact is not None:
                # Promote into memory so repeat lookups stay O(1).
                self._store_memory(stage, key, artifact)
                with self._lock:
                    stats.disk_hits += 1
                return artifact, TIER_DISK
        with self._lock:
            stats.misses += 1
        return None, TIER_COMPUTE

    def _store_memory(self, stage: str, key: str, artifact: Any) -> None:
        with self._lock:
            self._entries[(stage, key)] = artifact
            self._entries.move_to_end((stage, key))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def store(self, stage: str, key: str, artifact: Any) -> None:
        """Insert into both tiers (memory LRU may evict; disk persists)."""
        self._store_memory(stage, key, artifact)
        if self.disk_store is not None:
            self.disk_store.put(stage, key, artifact)

    def resolve_tier(
        self, stage: str, key: str, compute: Callable[[], Any]
    ) -> tuple[Any, str]:
        """Memoized computation: ``(artifact, tier)``.

        ``compute`` runs outside the cache lock; see the module
        docstring for the concurrent-miss semantics.
        """
        artifact, tier = self.lookup_tier(stage, key)
        if tier != TIER_COMPUTE:
            return artifact, tier
        artifact = compute()
        self.store(stage, key, artifact)
        return artifact, TIER_COMPUTE

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, stage_key: tuple[str, str]) -> bool:
        with self._lock:
            return stage_key in self._entries

    @property
    def stats(self) -> dict[str, StageStats]:
        """Per-stage per-tier counters (live view)."""
        return self._stats

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict statistics, ready for printing/serialisation."""
        with self._lock:
            return {
                stage: {
                    "hits": s.hits,
                    "memory_hits": s.memory_hits,
                    "disk_hits": s.disk_hits,
                    "misses": s.misses,
                    "hit_rate": s.hit_rate,
                }
                for stage, s in sorted(self._stats.items())
            }

    def clear(self) -> None:
        """Drop all memory artifacts and statistics (disk is untouched)."""
        with self._lock:
            self._entries.clear()
            self._stats.clear()

    def invalidate_stage(self, stage: str) -> int:
        """Drop one stage's memory artifacts; returns how many were dropped.

        The disk tier is content-addressed and never invalidated here:
        a changed config or trace changes the key, so stale entries can
        only be *unreferenced*, not wrong (``repro store --gc`` prunes
        corrupt files).
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == stage]
            for k in doomed:
                del self._entries[k]
            return len(doomed)


@dataclass
class StageCounter:
    """Engine hook counting stage executions and cache hits per tier.

    Register with :meth:`repro.engine.graph.PipelineEngine.add_hook`;
    the perf benchmarks use it to assert that repeated extraction does
    not re-run the denoiser, and the warm-start tests use it to assert
    a fresh process serves entirely from the disk tier::

        counter = StageCounter()
        wimi.engine.add_hook(counter)
        wimi.extract(session)
        assert counter.executions.get("amplitude_denoise", 0) <= 2

    ``hits`` counts cache hits from *any* tier (preserving the pre-tier
    meaning); ``disk_hits`` additionally breaks out the durable tier.
    """

    executions: dict[str, int] = field(default_factory=dict)
    hits: dict[str, int] = field(default_factory=dict)
    disk_hits: dict[str, int] = field(default_factory=dict)

    def __call__(self, event: StageEvent) -> None:
        bucket = self.hits if event.cache_hit else self.executions
        bucket[event.stage] = bucket.get(event.stage, 0) + 1
        if event.tier == TIER_DISK:
            self.disk_hits[event.stage] = (
                self.disk_hits.get(event.stage, 0) + 1
            )

    def total(self, stage: str) -> int:
        """Executions + hits observed for one stage."""
        return self.executions.get(stage, 0) + self.hits.get(stage, 0)

    def reset(self) -> None:
        """Zero all counters."""
        self.executions.clear()
        self.hits.clear()
        self.disk_hits.clear()
