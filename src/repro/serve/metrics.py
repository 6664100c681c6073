"""Dependency-free metrics registry for the identification service.

Three instrument kinds, all thread-safe and allocation-light:

* :class:`Counter` -- monotonically increasing event count (requests
  submitted, retries, rejections, per-stage executions...).
* :class:`Gauge` -- a point-in-time level (queue depth, in-flight
  requests, live workers).
* :class:`Histogram` -- fixed-bucket distribution with percentile
  estimation (request latency, batch sizes).  Buckets are fixed at
  construction, so observation is O(#buckets) worst case and there is
  no unbounded sample storage.

:class:`MetricsRegistry` names and owns the instruments and renders a
``snapshot()`` dict (for programmatic consumers such as the cluster's
heartbeats and ``wimibench``) or a human-readable text block.  It is
deliberately free of third-party dependencies so the serving layer stays
importable everywhere the pipeline is.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Sequence

#: Default latency buckets (milliseconds): roughly logarithmic from
#: sub-millisecond cache hits to multi-second stragglers.
LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)

#: Default batch-size buckets: exact up to 16, then coarse.
BATCH_SIZE_BUCKETS = tuple(float(n) for n in range(1, 17)) + (32.0, 64.0)


class Counter:
    """Monotonic event counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time level; can move both ways."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute level."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current level."""
        with self._lock:
            return self._value


def _estimate_percentile(
    bounds: Sequence[float],
    counts: Sequence[int],
    vmin: float,
    vmax: float,
    p: float,
) -> float:
    """Fixed-bucket percentile estimate, the one rule of this module.

    ``counts[i]`` holds the observations in ``(bounds[i-1], bounds[i]]``
    and ``counts[-1]`` those above ``bounds[-1]`` (the overflow bucket),
    so ``len(counts) == len(bounds) + 1``; empty buckets must be kept,
    as they fix the lower edge of the bucket above them.  The estimate
    interpolates linearly inside the bucket holding the requested rank,
    the first bucket starting at ``min(vmin, bounds[0])`` and the
    overflow bucket ending at ``vmax``, and is clamped to
    ``[vmin, vmax]``.
    """
    count = sum(counts)
    if count == 0:
        return 0.0
    rank = p / 100.0 * count
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        lower = bounds[index - 1] if index > 0 else min(vmin, bounds[0])
        upper = bounds[index] if index < len(bounds) else vmax
        if cumulative + bucket_count >= rank:
            fraction = (rank - cumulative) / bucket_count
            estimate = lower + fraction * (upper - lower)
            return float(min(max(estimate, vmin), vmax))
        cumulative += bucket_count
    return float(vmax)


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    Args:
        buckets: Ascending finite upper bounds.  An implicit +inf bucket
            catches everything above the last bound.

    Percentiles are estimated by linear interpolation inside the bucket
    that contains the requested rank (the standard fixed-bucket
    estimator); observations that land in the overflow bucket clamp to
    the maximum value actually observed, so ``p100`` is always exact.
    """

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS_MS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be ascending: {bounds}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile, ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            return _estimate_percentile(
                self.bounds, self._counts, self._min, self._max, p
            )

    def snapshot(self) -> dict:
        """Summary dict: count, mean, min/max, p50/p95/p99, buckets.

        ``buckets`` maps every upper bound (``"inf"`` for the overflow
        bucket) to its count, empty buckets included: the layout is what
        lets :meth:`MetricsRegistry.merge` re-estimate percentiles
        exactly as this instrument does.
        """
        with self._lock:
            count = self._count
        data = {
            "count": count,
            "mean": self.mean,
            "min": self._min if count else 0.0,
            "max": self._max if count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
        with self._lock:
            data["buckets"] = dict(
                zip(self.bounds + ("inf",), self._counts)
            )
        return data


def _merge_histogram_snapshots(snapshots: list[dict]) -> dict:
    """Merge several :meth:`Histogram.snapshot` dicts into one.

    Bucket counts are summed per bound over the union of the snapshots'
    layouts (so registries created with different bucket layouts still
    merge), the mean is count-weighted, min/max are the extremes, and
    percentiles are re-estimated from the merged buckets by the rule
    the live instrument uses.  Snapshots of one layout therefore merge
    to the percentiles of one histogram that observed every value.
    """
    merged: dict = {}
    for snap in snapshots:
        for bound, bucket_count in snap.get("buckets", {}).items():
            key = math.inf if bound == "inf" else float(bound)
            merged[key] = merged.get(key, 0) + bucket_count
    bounds = sorted(b for b in merged if b != math.inf)
    counts = [merged[b] for b in bounds] + [merged.get(math.inf, 0)]
    buckets = dict(zip(bounds + ["inf"], counts))
    live = [s for s in snapshots if s.get("count")]
    if not live:
        return {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "buckets": buckets,
        }
    count = sum(s["count"] for s in live)
    total = sum(s["mean"] * s["count"] for s in live)
    vmin = min(s["min"] for s in live)
    vmax = max(s["max"] for s in live)
    return {
        "count": count,
        "mean": total / count,
        "min": vmin,
        "max": vmax,
        **{
            f"p{p}": _estimate_percentile(bounds, counts, vmin, vmax, p)
            for p in (50, 95, 99)
        },
        "buckets": buckets,
    }


class MetricsRegistry:
    """Named instruments plus snapshot/text rendering.

    ``counter``/``gauge``/``histogram`` are get-or-create: wiring code
    does not need to pre-declare everything it might touch, and two
    callers naming the same instrument share it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_MS
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``buckets`` only applies on creation; later calls return the
        existing instrument unchanged.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets)
            return histogram

    def snapshot(
        self, source: str | None = None, seq: int | None = None
    ) -> dict:
        """All instruments as plain data, ready for printing/JSON.

        Args:
            source: Stable identity of the producing registry (e.g. the
                cluster's per-incarnation worker id ``worker-0.2``).
                When set, the snapshot carries a ``source`` stamp that
                makes :meth:`merge` idempotent -- several snapshots of
                the same source dedup to the newest one instead of
                summing.
            seq: Monotonic sequence number within ``source`` ("newest"
                tiebreaker); required when ``source`` is given.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        snap = {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(histograms.items())
            },
        }
        if source is not None:
            snap["source"] = {"id": source, "seq": 0 if seq is None else seq}
        return snap

    @staticmethod
    def merge(snapshots: Iterable[dict]) -> dict:
        """Aggregate several :meth:`snapshot` dicts into one.

        Counters sum (they are event counts), gauges sum (levels such
        as ``workers.alive`` or ``inflight`` aggregate additively
        across processes), and histograms are bucket-merged with
        percentiles re-estimated from the combined buckets.  This is
        how the cluster client folds per-worker-process
        registries into one cross-process dashboard; it works on any
        snapshot produced by this module, including ones round-tripped
        through JSON (bucket keys become strings -- both forms are
        accepted).

        Snapshots carrying a ``source`` stamp (see :meth:`snapshot`)
        are deduplicated first: for each source id only the highest
        ``seq`` survives.  A registry's instruments are cumulative, so
        two beats of the same worker are *views of the same counts at
        different times* -- summing them double-counts; keeping the
        newest is exact.  Unstamped snapshots are assumed distinct and
        merge as before.
        """
        deduped: dict[str, dict] = {}
        unstamped: list[dict] = []
        for snap in snapshots:
            stamp = snap.get("source")
            if isinstance(stamp, dict) and "id" in stamp:
                held = deduped.get(stamp["id"])
                if (
                    held is None
                    or stamp.get("seq", 0) >= held["source"].get("seq", 0)
                ):
                    deduped[stamp["id"]] = snap
            else:
                unstamped.append(snap)
        snapshots = unstamped + [
            deduped[key] for key in sorted(deduped)
        ]
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histogram_parts: dict[str, list[dict]] = {}
        for snap in snapshots:
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                gauges[name] = gauges.get(name, 0.0) + value
            for name, data in snap.get("histograms", {}).items():
                histogram_parts.setdefault(name, []).append(data)
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                name: _merge_histogram_snapshots(parts)
                for name, parts in sorted(histogram_parts.items())
            },
        }

    def render_text(self, title: str = "metrics") -> str:
        """Human-readable rendering of :meth:`snapshot`."""
        snap = self.snapshot()
        lines = [title]
        if snap["counters"]:
            lines.append("  counters:")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"    {name:<{width}}  {value}")
        if snap["gauges"]:
            lines.append("  gauges:")
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"    {name:<{width}}  {value:g}")
        for name, data in snap["histograms"].items():
            lines.append(
                f"  histogram {name}: n={data['count']} mean={data['mean']:.3f} "
                f"p50={data['p50']:.3f} p95={data['p95']:.3f} "
                f"p99={data['p99']:.3f} max={data['max']:.3f}"
            )
        return "\n".join(lines)


class StageEventRecorder:
    """Engine hook mirroring stage resolutions into a registry.

    Register on a :class:`repro.engine.PipelineEngine` via ``add_hook``;
    every execution/cache hit increments
    ``stage.<name>.executions`` / ``stage.<name>.hits``, and the cache
    tier that satisfied the resolution is broken out per stage
    (``stage.<name>.memory_hits`` / ``stage.<name>.disk_hits``) and in
    the service-wide aggregates ``cache.memory_hits`` /
    ``cache.disk_hits`` / ``cache.misses``.  The service installs one
    per worker engine so cache behaviour under live traffic shows up in
    the same snapshot as the request metrics.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def __call__(self, event) -> None:
        kind = "hits" if event.cache_hit else "executions"
        self.registry.counter(f"stage.{event.stage}.{kind}").inc()
        if event.cache_hit:
            suffix = "disk_hits" if event.tier == "disk" else "memory_hits"
            self.registry.counter(f"stage.{event.stage}.{suffix}").inc()
            self.registry.counter(f"cache.{suffix}").inc()
        else:
            self.registry.counter("cache.misses").inc()
