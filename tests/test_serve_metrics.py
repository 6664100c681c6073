"""Tests for the dependency-free metrics registry."""

import json
import threading

import pytest

from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StageEventRecorder,
)
from repro.engine.cache import (
    TIER_COMPUTE,
    TIER_DISK,
    TIER_MEMORY,
    StageEvent,
)


class TestCounter:
    def test_counts_up(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_thread_safe_increments(self):
        c = Counter()

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((5.0, 1.0))

    def test_count_mean_min_max(self):
        h = Histogram((10.0, 100.0))
        for v in (1.0, 5.0, 50.0, 200.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(64.0)
        snap = h.snapshot()
        assert snap["min"] == 1.0
        assert snap["max"] == 200.0

    def test_percentiles_uniform(self):
        # 1..100 into 10-wide buckets: percentile ~= value.
        h = Histogram(tuple(float(b) for b in range(10, 101, 10)))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=5.0)
        assert h.percentile(95) == pytest.approx(95.0, abs=5.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=5.0)
        assert h.percentile(100) == 100.0

    def test_percentile_overflow_clamps_to_observed_max(self):
        h = Histogram((1.0,))
        h.observe(500.0)
        h.observe(900.0)
        assert h.percentile(99) <= 900.0
        assert h.snapshot()["max"] == 900.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.percentile(50) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        # The layout is kept even with nothing observed.
        assert snap["buckets"] == dict.fromkeys(
            LATENCY_BUCKETS_MS + ("inf",), 0
        )

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("requests").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(12.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"requests": 3}
        assert snap["gauges"] == {"depth": 2.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_render_text_mentions_everything(self):
        reg = MetricsRegistry()
        reg.counter("requests.completed").inc()
        reg.histogram("batch_size", BATCH_SIZE_BUCKETS).observe(4)
        text = reg.render_text("svc")
        assert "svc" in text
        assert "requests.completed" in text
        assert "batch_size" in text
        assert "p95" in text


class TestStageEventRecorder:
    def test_mirrors_hits_and_executions(self):
        reg = MetricsRegistry()
        rec = StageEventRecorder(reg)
        rec(StageEvent(stage="amplitude_denoise", key="k", tier=TIER_COMPUTE))
        rec(StageEvent(stage="amplitude_denoise", key="k", tier=TIER_MEMORY))
        rec(StageEvent(stage="amplitude_denoise", key="k", tier=TIER_DISK))
        snap = reg.snapshot()["counters"]
        assert snap["stage.amplitude_denoise.executions"] == 1
        assert snap["stage.amplitude_denoise.hits"] == 2


class TestMerge:
    def _registry(self, completed, latencies):
        reg = MetricsRegistry()
        for _ in range(completed):
            reg.counter("requests.completed").inc()
        reg.gauge("queue_depth").set(completed)
        hist = reg.histogram("latency_ms")
        for value in latencies:
            hist.observe(value)
        return reg

    def test_counters_and_gauges_sum(self):
        a = self._registry(3, [1.0]).snapshot()
        b = self._registry(5, [2.0]).snapshot()
        merged = MetricsRegistry.merge([a, b])
        assert merged["counters"]["requests.completed"] == 8
        assert merged["gauges"]["queue_depth"] == 8

    def test_histograms_combine_counts_and_extremes(self):
        a = self._registry(1, [1.0, 5.0, 9.0]).snapshot()
        b = self._registry(1, [120.0, 400.0]).snapshot()
        merged = MetricsRegistry.merge([a, b])
        hist = merged["histograms"]["latency_ms"]
        assert hist["count"] == 5
        assert hist["min"] == 1.0
        assert hist["max"] == 400.0
        assert hist["mean"] == pytest.approx((1 + 5 + 9 + 120 + 400) / 5)
        assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]

    def test_merged_percentiles_match_single_source(self):
        # Merging one snapshot with empties must not distort it.
        values = [float(v) for v in range(1, 200)]
        single = self._registry(0, values).snapshot()
        empty = MetricsRegistry()
        empty.histogram("latency_ms")
        merged = MetricsRegistry.merge([single, empty.snapshot()])
        for quantile in ("p50", "p95", "p99"):
            assert merged["histograms"]["latency_ms"][quantile] == (
                pytest.approx(single["histograms"]["latency_ms"][quantile])
            )

    def test_merge_disjoint_names_unions(self):
        a = MetricsRegistry()
        a.counter("only.a").inc()
        b = MetricsRegistry()
        b.counter("only.b").inc(2)
        merged = MetricsRegistry.merge([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"only.a": 1, "only.b": 2}

    def test_merge_empty_iterable(self):
        merged = MetricsRegistry.merge([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_survives_json_round_trip(self):
        # Cross-process snapshots arrive JSON-ified (string bucket keys).
        a = self._registry(2, [1.0, 50.0, 900.0]).snapshot()
        round_tripped = json.loads(json.dumps(a))
        merged = MetricsRegistry.merge([round_tripped])
        assert merged["histograms"]["latency_ms"]["count"] == 3
        assert merged["histograms"]["latency_ms"]["max"] == 900.0


class TestMergeKeepsPercentiles:
    """A merge re-estimates percentiles exactly as the live histogram.

    The snapshot keeps empty buckets: they fix the lower edge of the
    bucket above them.  A merge that lost them read 7, 8, 9 and 30 ms as
    three values in (7, 10] instead of (5, 10], so its p50 was 9.0, not
    the live 8.33.
    """

    QUANTILES = ("p50", "p95", "p99")

    @staticmethod
    def _registry(values):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_ms")
        for value in values:
            histogram.observe(value)
        return registry

    @pytest.mark.parametrize(
        "values", [[7.0, 8.0, 9.0, 30.0], [float(v) for v in range(1, 200)]]
    )
    def test_single_snapshot_merges_to_itself(self, values):
        snap = self._registry(values).snapshot()
        live = snap["histograms"]["latency_ms"]
        for source in (snap, json.loads(json.dumps(snap))):
            merged = MetricsRegistry.merge([source])["histograms"]
            for quantile in self.QUANTILES:
                assert merged["latency_ms"][quantile] == live[quantile]

    def test_two_snapshots_equal_one_histogram_of_both(self):
        first = [0.7, 3.0, 7.0, 8.0, 9.0, 30.0, 45.0]
        second = [0.2, 1.5, 9.5, 60.0, 250.0, 12000.0]
        a = self._registry(first).snapshot()
        b = json.loads(json.dumps(self._registry(second).snapshot()))
        merged = MetricsRegistry.merge([a, b])["histograms"]["latency_ms"]
        expected = self._registry(first + second).snapshot()
        expected = expected["histograms"]["latency_ms"]
        for field in ("count", "min", "max") + self.QUANTILES:
            assert merged[field] == expected[field], field
        assert merged["mean"] == pytest.approx(expected["mean"], rel=1e-12)
        assert merged["buckets"] == expected["buckets"]


class TestMergeIdempotency:
    """Source-stamped snapshots dedup per (worker, epoch): a re-sent
    heartbeat or a restarted collector never double-counts."""

    @staticmethod
    def _stamped(worker: str, seq: int, value: int) -> dict:
        registry = MetricsRegistry()
        registry.counter("requests.completed").inc(value)
        return registry.snapshot(source=worker, seq=seq)

    def test_same_snapshot_twice_counts_once(self):
        snap = self._stamped("worker-0.1", 3, 10)
        merged = MetricsRegistry.merge([snap, snap])
        assert merged["counters"]["requests.completed"] == 10

    def test_highest_seq_wins_per_source(self):
        early = self._stamped("worker-0.1", 1, 4)
        late = self._stamped("worker-0.1", 7, 9)
        merged = MetricsRegistry.merge([late, early])
        assert merged["counters"]["requests.completed"] == 9

    def test_distinct_incarnations_sum(self):
        # worker-0.1 died after 5 requests; its replacement worker-0.2
        # served 3 more.  Both incarnations' work counts.
        merged = MetricsRegistry.merge([
            self._stamped("worker-0.1", 9, 5),
            self._stamped("worker-0.2", 2, 3),
        ])
        assert merged["counters"]["requests.completed"] == 8

    def test_unstamped_snapshots_still_sum(self):
        registry = MetricsRegistry()
        registry.counter("requests.completed").inc(2)
        plain = registry.snapshot()
        merged = MetricsRegistry.merge([
            plain, plain, self._stamped("worker-0.1", 1, 1),
        ])
        # Unstamped snapshots carry no identity: caller's problem.
        assert merged["counters"]["requests.completed"] == 5

    def test_stamp_survives_json_round_trip(self):
        import json

        snap = json.loads(json.dumps(self._stamped("worker-0.1", 2, 6)))
        merged = MetricsRegistry.merge([snap, snap])
        assert merged["counters"]["requests.completed"] == 6
