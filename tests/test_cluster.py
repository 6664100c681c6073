"""Tests for the multi-process sharded serving cluster."""

import os
import signal
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.channel.materials import default_catalog
from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    ClusterError,
    Envelope,
    LocalQueueBroker,
    Reply,
    ShardRing,
    Shutdown,
)
from repro.cluster.broker import _ring_hash
from repro.cluster.worker import WorkerBoot, _WorkerRuntime
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.serve import MetricsRegistry, QueueFullError, ServiceStoppedError


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


class TestShardRing:
    def test_routing_is_deterministic(self):
        ring = ShardRing([0, 1, 2])
        assert all(
            ring.route(f"key-{i}") == ring.route(f"key-{i}")
            for i in range(100)
        )

    def test_virtual_nodes_balance_load(self):
        ring = ShardRing([0, 1, 2], vnodes=64)
        counts = {0: 0, 1: 0, 2: 0}
        for i in range(3000):
            counts[ring.route(f"key-{i}")] += 1
        for count in counts.values():
            assert 600 < count < 1500  # no shard starved or dominant

    def test_remove_only_remaps_removed_shards_keys(self):
        ring = ShardRing([0, 1, 2])
        before = {f"key-{i}": ring.route(f"key-{i}") for i in range(1000)}
        ring.remove(1)
        for key, shard in before.items():
            if shard != 1:
                assert ring.route(key) == shard
            else:
                assert ring.route(key) in (0, 2)

    def test_cannot_remove_last_shard(self):
        ring = ShardRing([0])
        with pytest.raises(ValueError, match="last shard"):
            ring.remove(0)

    def test_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardRing([])

    def test_hash_is_stable_across_calls(self):
        assert _ring_hash("abc") == _ring_hash("abc")
        assert _ring_hash("abc") != _ring_hash("abd")


# ----------------------------------------------------------------------
# Messages / local broker
# ----------------------------------------------------------------------


class TestEnvelope:
    def test_deadline_is_wall_clock(self):
        fresh = Envelope("r1", None, 0, deadline_ts=time.time() + 60.0)
        stale = Envelope("r2", None, 0, deadline_ts=time.time() - 1.0)
        assert not fresh.expired()
        assert stale.expired()
        assert not Envelope("r3", None, 0).expired()

    def test_redelivered_bumps_attempts(self):
        envelope = Envelope("r1", None, 0)
        again = envelope.redelivered()
        assert envelope.attempts == 0
        assert again.attempts == 1
        assert again.request_id == "r1"

    def test_reply_ok(self):
        assert Reply("r1", label="oil").ok
        assert not Reply("r1", error_type="ValueError", error="bad").ok


class TestLocalQueueBroker:
    def test_roundtrip_in_process(self):
        broker = LocalQueueBroker(2)
        try:
            endpoint = broker.endpoint(1)
            broker.publish(Envelope("r1", "session", 1))
            message = endpoint.consume(timeout=5.0)
            assert message.request_id == "r1"
            endpoint.send_reply(Reply("r1", label="oil"))
            reply = broker.next_reply(timeout=5.0)
            assert reply.label == "oil"
            assert broker.next_reply(timeout=0.0) is None
        finally:
            broker.close()

    def test_shutdown_pill_is_fifo_behind_work(self):
        broker = LocalQueueBroker(1)
        try:
            broker.publish(Envelope("r1", None, 0))
            broker.publish_shutdown(0)
            endpoint = broker.endpoint(0)
            assert isinstance(endpoint.consume(timeout=5.0), Envelope)
            assert isinstance(endpoint.consume(timeout=5.0), Shutdown)
        finally:
            broker.close()

    def test_reset_shard_salvages_unconsumed_envelopes(self):
        broker = LocalQueueBroker(1)
        try:
            broker.publish(Envelope("r1", None, 0))
            broker.publish(Envelope("r2", None, 0))
            time.sleep(0.1)  # let the feeder thread flush
            salvaged = broker.reset_shard(0)
            assert [e.request_id for e in salvaged] == ["r1", "r2"]
        finally:
            broker.close()

    def test_reset_shard_replaces_every_channel(self):
        """A crashed worker's queues must never be reused: the crash
        can leave their cross-process locks held forever."""
        broker = LocalQueueBroker(2)
        try:
            before = broker.endpoint(0)
            broker.reset_shard(0)
            after = broker.endpoint(0)
            assert after._requests is not before._requests
            assert after._replies is not before._replies
            assert after._health is not before._health
            # The untouched shard keeps its channels.
            assert broker.endpoint(1)._requests is broker.endpoint(1)._requests
            # The fresh channels work end to end.
            broker.publish(Envelope("r1", None, 0))
            message = after.consume(timeout=5.0)
            after.send_reply(Reply(message.request_id, label="oil"))
            assert broker.next_reply(timeout=5.0).request_id == "r1"
        finally:
            broker.close()

    def test_replies_multiplex_across_shards(self):
        broker = LocalQueueBroker(3)
        try:
            for shard in range(3):
                broker.endpoint(shard).send_reply(Reply(f"r{shard}"))
            got = {broker.next_reply(timeout=5.0).request_id
                   for _ in range(3)}
            assert got == {"r0", "r1", "r2"}
            assert broker.next_reply(timeout=0.0) is None
        finally:
            broker.close()

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            LocalQueueBroker(0)


# ----------------------------------------------------------------------
# Worker broker adapter (in-process, no registry boot)
# ----------------------------------------------------------------------


class _FakeView:
    """Engine view stand-in: labels sessions "oil", fails on "poison"."""

    def __init__(self, gate=None, delay_s=0.0):
        self.engine = SimpleNamespace(add_hook=lambda hook: None)
        self.gate = gate
        self.delay_s = delay_s

    def identify_batch(self, sessions):
        if self.gate is not None:
            assert self.gate.wait(30.0)
        time.sleep(self.delay_s)
        if "poison" in sessions:
            raise ValueError("poisoned capture")
        return ["oil"] * len(sessions)


class _ScriptedEndpoint:
    """Broker endpoint that hands out a fixed script of messages.

    A callable in the script is called and consumed as an empty poll.
    """

    def __init__(self, script):
        self.script = list(script)
        self.replies = []

    def consume(self, timeout):
        assert self.script, "script exhausted without a Shutdown pill"
        message = self.script.pop(0)
        if callable(message):
            message()
            return None
        return message

    def send_reply(self, reply):
        self.replies.append(reply)

    def send_heartbeat(self, heartbeat):
        pass


def _runtime(endpoint, view=None, **boot):
    """A worker adapter over ``endpoint`` serving a fake pipeline."""
    wimi = SimpleNamespace(
        is_fitted=True,
        cache=SimpleNamespace(disk_store=None),
        clone_view=lambda: view if view is not None else _FakeView(),
    )
    return _WorkerRuntime(
        "w0", 0, WorkerBoot(registry_path="unused", **boot), endpoint, wimi
    )


def _serve(script, view=None, max_wait_s=None, **boot):
    """Run a worker adapter over ``script``; returns (runtime, replies).

    ``max_wait_s`` overrides the worker service's batch-fill wait.
    """
    endpoint = _ScriptedEndpoint(script)
    runtime = _runtime(endpoint, view, **boot)
    if max_wait_s is not None:
        runtime.service.config = replace(
            runtime.service.config, max_wait_s=max_wait_s
        )
    server = threading.Thread(target=runtime.serve_forever, daemon=True)
    server.start()
    server.join(timeout=60.0)
    assert not server.is_alive(), "serve_forever did not return"
    return runtime, {reply.request_id: reply for reply in endpoint.replies}


class TestWorkerClockDiscipline:
    def test_skewed_submit_clamps_and_counts(self):
        """A future submitted_ts (cross-host skew) is clamped, not negative.

        The clamp is counted in ``clock.skew_clamped`` so skew shows up
        in the client's merged snapshot instead of silently
        zeroing queue-wait samples.
        """
        skewed = Envelope("r1", None, 0, submitted_ts=time.time() + 60.0)
        normal = Envelope("r2", None, 0)
        runtime, replies = _serve([skewed, normal, Shutdown()])

        assert runtime.metrics.counter("clock.skew_clamped").value == 1
        waits = runtime.metrics.snapshot()["histograms"]["queue_wait_ms"]
        assert waits["count"] == 2
        assert waits["min"] >= 0.0  # never a negative wait sample
        assert sorted(replies) == ["r1", "r2"]
        assert all(reply.ok for reply in replies.values())

    def test_skew_counter_survives_snapshot_merge(self):
        """The counter reaches the client's cross-process merge."""
        runtime, _ = _serve(
            [Envelope("r1", None, 0, submitted_ts=time.time() + 5.0),
             Shutdown()]
        )
        merged = MetricsRegistry.merge(
            [runtime.metrics.snapshot(), MetricsRegistry().snapshot()]
        )
        assert merged["counters"]["clock.skew_clamped"] == 1

    def test_unskewed_batch_counts_nothing(self):
        # Wall-clock deadlines still expire against wall-clock now.
        stale = Envelope("r3", None, 0, deadline_ts=time.time() - 1.0)
        runtime, replies = _serve(
            [Envelope("r1", None, 0), Envelope("r2", None, 0), stale,
             Shutdown()]
        )
        assert runtime.metrics.counter("clock.skew_clamped").value == 0
        assert runtime.metrics.counter("requests.expired").value == 1
        assert runtime.metrics.counter("deadline.expired_dequeue").value == 1
        assert runtime.metrics.counter("deadline.expired_admission").value == 0
        assert replies["r3"].error_type == "DeadlineExceededError"
        waits = runtime.metrics.snapshot()["histograms"]["queue_wait_ms"]
        assert waits["count"] == 3


class TestWorkerAdapter:
    def test_poisoned_corider_fails_alone(self):
        script = [
            Envelope("a", "s1", 0), Envelope("p", "poison", 0),
            Envelope("b", "s2", 0), Shutdown(),
        ]
        runtime, replies = _serve(script, max_batch_size=3, max_wait_s=5.0)
        assert replies["p"].error_type == "ValueError"
        assert replies["p"].error == "poisoned capture"
        assert replies["a"].label == replies["b"].label == "oil"
        # All three rode one batch before the fallback isolated them.
        assert {reply.batch_size for reply in replies.values()} == {3}
        assert runtime.metrics.counter("faults.batch_isolated").value == 1

    def test_crash_strands_one_batch_and_salvages_the_rest(self, tmp_path):
        """The adapter admits at most one micro-batch ahead of its
        replies, so a crash defers only that batch: the rest of the
        shard's backlog is still in the broker and is salvaged with its
        attempts untouched, not charged a redelivery."""
        orch = ClusterClient(
            tmp_path / "registry",
            config=ClusterConfig(
                num_workers=1, max_batch_size=2,
                redelivery_backoff_base_s=10.0,
                redelivery_backoff_max_s=20.0,
            ),
        )
        orch._spawn = lambda slot: None  # the replacement is not under test
        gate = threading.Event()
        runtime = _runtime(
            orch.broker.endpoint(0), _FakeView(gate=gate), max_batch_size=2
        )
        server = threading.Thread(target=runtime.serve_forever, daemon=True)
        server.start()
        ids = {f"r{i}" for i in range(10)}
        for request_id in sorted(ids):
            orch.broker.publish(_pend(orch, 0, request_id).envelope)
        try:
            give_up = time.monotonic() + 10.0
            while runtime._unreplied < 2 and time.monotonic() < give_up:
                time.sleep(0.01)
            time.sleep(0.2)  # a full window takes nothing more
            assert runtime._unreplied == 2
            orch._recover(orch._slots[0], "worker crashed")
            deferred = [envelope for _, envelope in orch._deferred]
            assert len(deferred) == 2
            assert all(envelope.attempts == 1 for envelope in deferred)
            fresh = orch.broker.endpoint(0)
            salvaged = []  # republished at once
            while (envelope := fresh.consume(timeout=1.0)) is not None:
                salvaged.append(envelope)
            assert len(salvaged) == 8
            assert all(envelope.attempts == 0 for envelope in salvaged)
            assert {e.request_id for e in deferred + salvaged} == ids
        finally:
            gate.set()
            runtime.draining.set()
            server.join(timeout=10.0)
            orch.broker.close()
        assert not server.is_alive()

    def test_pill_answers_every_envelope_before_returning(self):
        envelopes = [Envelope(f"r{i}", f"s{i}", 0) for i in range(9)]
        envelopes.append(Envelope("again", "s9", 0, attempts=1))
        runtime, replies = _serve(
            [*envelopes, Shutdown()], view=_FakeView(delay_s=0.02),
            max_batch_size=2,
        )
        assert len(replies) == 10
        assert all(reply.label == "oil" for reply in replies.values())
        assert replies["again"].attempts == 2
        assert runtime.metrics.counter("requests.redelivered").value == 1
        histograms = runtime.metrics.snapshot()["histograms"]
        assert histograms["handle_ms"]["count"] == 10
        assert histograms["queue_wait_ms"]["count"] == 10
        assert not runtime.service.is_running


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=6, seed=2,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    root = tmp_path_factory.mktemp("cluster")
    registry = root / "registry"
    wimi.save_to_registry(registry, name="wimi")
    return wimi, test, registry, root


@pytest.fixture(scope="module")
def cluster(deployment):
    _, _, registry, root = deployment
    config = ClusterConfig(num_workers=2, boot_timeout_s=120.0)
    client = ClusterClient(registry, config=config, store_root=root / "st")
    client.start()
    yield client
    client.stop()


class TestClusterServing:
    def test_predictions_match_direct_engine(self, deployment, cluster):
        wimi, test, _, _ = deployment
        expected = [str(x) for x in wimi.identify_batch(test)]
        handles = cluster.submit_many(list(test), timeout=60.0)
        assert [h.result(timeout=120.0) for h in handles] == expected

    def test_repeat_sessions_route_to_same_shard_and_hit_cache(
        self, deployment, cluster
    ):
        _, test, _, _ = deployment
        for _ in range(3):
            cluster.identify(test[0], timeout=60.0)
        time.sleep(0.3)  # let a heartbeat deliver fresh worker metrics
        snap = cluster.snapshot()
        merged = snap["merged"]["counters"]
        assert merged.get("cache.memory_hits", 0) > 0

    def test_snapshot_shape(self, cluster):
        snap = cluster.snapshot()
        assert set(snap) >= {"cluster", "shards", "workers", "merged"}
        assert snap["cluster"]["counters"]["requests.completed"] > 0
        assert len(snap["shards"]) == 2
        for state in snap["shards"].values():
            assert state["alive"] and state["ready"]

    def test_backpressure_rejects_beyond_capacity(self, deployment):
        _, test, registry, root = deployment
        config = ClusterConfig(
            num_workers=1, queue_capacity=2, boot_timeout_s=120.0,
            throttle_s=0.2, max_batch_size=1,
        )
        with ClusterClient(registry, config=config) as client:
            handles = client.submit_many(list(test[:2]), timeout=None)
            with pytest.raises(QueueFullError):
                client.submit(test[2])
            for handle in handles:
                handle.result(timeout=60.0)
            # Capacity frees as requests resolve.
            assert client.identify(test[2], timeout=60.0)

    def test_submit_after_stop_rejected(self, deployment):
        _, test, registry, _ = deployment
        config = ClusterConfig(num_workers=1, boot_timeout_s=120.0)
        client = ClusterClient(registry, config=config)
        client.start()
        client.stop()
        with pytest.raises(ServiceStoppedError):
            client.submit(test[0])

    def test_boot_failure_surfaces_as_cluster_error(self, tmp_path):
        config = ClusterConfig(
            num_workers=1, max_restarts=0, boot_timeout_s=60.0,
        )
        client = ClusterClient(tmp_path / "missing-registry", config=config)
        with pytest.raises(ClusterError):
            client.start()
        client.stop()


@pytest.mark.slow
class TestKillSurvival:
    def test_sigkilled_worker_restarts_with_zero_lost_requests(
        self, deployment
    ):
        wimi, test, registry, root = deployment
        sessions = list(test) * 6
        expected = [str(x) for x in wimi.identify_batch(sessions)]
        config = ClusterConfig(
            num_workers=2, queue_capacity=256, max_batch_size=2,
            boot_timeout_s=120.0, throttle_s=0.05,
        )
        client = ClusterClient(
            registry, config=config, store_root=root / "kill-st"
        )
        with client:
            handles = client.submit_many(sessions, timeout=None)
            time.sleep(0.2)  # throttle guarantees in-flight load
            victim = client._slots[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            results = [h.result(timeout=300.0) for h in handles]
            snap = client.snapshot()
        counters = snap["cluster"]["counters"]
        assert results == expected
        assert counters["cluster.restarts"] >= 1
        assert counters["requests.completed"] == len(sessions)
        assert counters["requests.failed"] == 0

    def test_restart_budget_exhaustion_degrades_to_survivors(
        self, deployment
    ):
        wimi, test, registry, _ = deployment
        config = ClusterConfig(
            num_workers=2, max_restarts=0, boot_timeout_s=120.0,
        )
        client = ClusterClient(registry, config=config)
        with client:
            client.identify(test[0], timeout=60.0)  # cluster serves
            victim = client._slots[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.snapshot()["shards"][0]["failed"]:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("shard was never abandoned")
            # Survivor keeps answering every session, including ones
            # that used to route to the dead shard.
            expected = [str(x) for x in wimi.identify_batch(test)]
            handles = client.submit_many(list(test), timeout=60.0)
            assert [h.result(timeout=120.0) for h in handles] == expected
            counters = client.snapshot()["cluster"]["counters"]
            assert counters["cluster.shards_failed"] == 1


# ----------------------------------------------------------------------
# Failure-control plane (unit level: no worker processes)
# ----------------------------------------------------------------------


@pytest.fixture
def orch(tmp_path):
    """A cluster client that never spawns workers: internals under test."""
    config = ClusterConfig(
        num_workers=2,
        breaker_failure_threshold=2,
        hedge_after_s=0.05,
        redelivery_backoff_base_s=10.0,  # deferrals visibly in the future
        redelivery_backoff_max_s=20.0,
    )
    return ClusterClient(tmp_path / "registry", config=config)


def _pend(orch, shard: int, request_id: str = "r-1"):
    from repro.cluster.client import _Pending
    from repro.serve.service import RequestHandle

    envelope = Envelope(request_id=request_id, session=object(), shard=shard)
    pending = _Pending(envelope, RequestHandle())
    orch._pending[request_id] = pending
    return pending


class TestRedeliveryBackoff:
    def test_in_flight_redelivery_is_deferred_not_immediate(self, orch):
        """Regression: a crashed shard's in-flight envelopes used to be
        re-published synchronously -- a poison pill would land on the
        replacement in one wave and re-kill it."""
        pending = _pend(orch, shard=0)
        orch._redeliver(0, salvaged=[])
        # Not on the wire yet: parked behind a jittered backoff.
        assert orch.broker.next_reply(timeout=0.0) is None
        assert orch.broker.endpoint(0).consume(timeout=0.05) is None
        assert len(orch._deferred) == 1
        due, envelope = orch._deferred[0]
        assert envelope.attempts == 1
        assert due > time.monotonic()
        assert orch.metrics.snapshot()["counters"][
            "cluster.redeliveries"
        ] == 1
        assert pending.envelope.attempts == 1

    def test_third_crash_exhausts_the_redelivery_budget(self, orch):
        """The poison cap: a request in flight through three worker
        crashes fails typed instead of crash-looping the shard."""
        from repro.cluster import RemoteError

        pending = _pend(orch, shard=0)
        orch._redeliver(0, salvaged=[])
        orch._redeliver(0, salvaged=[])
        assert not pending.handle.done()
        assert [e.attempts for _, e in orch._deferred] == [1, 2]
        orch._redeliver(0, salvaged=[])
        with pytest.raises(RemoteError) as excinfo:
            pending.handle.result(timeout=1.0)
        assert excinfo.value.error_type == "RedeliveryExhausted"
        assert pending.envelope.request_id not in orch._pending
        counters = orch.metrics.snapshot()["counters"]
        assert counters["requests.failed"] == 1
        assert counters["cluster.redeliveries"] == 2

    def test_salvaged_envelopes_republish_immediately(self, orch):
        pending = _pend(orch, shard=0)
        orch._redeliver(0, salvaged=[pending.envelope])
        republished = orch.broker.endpoint(0).consume(timeout=1.0)
        assert republished.request_id == pending.envelope.request_id
        assert republished.attempts == 0  # never picked up: not a retry
        assert orch._deferred == []

    def test_flush_publishes_due_and_drops_resolved(self, orch):
        kept = _pend(orch, shard=0, request_id="r-kept")
        gone = _pend(orch, shard=0, request_id="r-gone")
        now = time.monotonic()
        orch._deferred = [
            (now - 1.0, kept.envelope),
            (now - 1.0, gone.envelope),
            (now + 60.0, kept.envelope),
        ]
        del orch._pending["r-gone"]  # resolved while waiting out backoff
        orch._flush_deferred()
        flushed = orch.broker.endpoint(0).consume(timeout=1.0)
        assert flushed.request_id == "r-kept"
        assert orch.broker.endpoint(0).consume(timeout=0.05) is None
        assert [e.request_id for _, e in orch._deferred] == ["r-kept"]


class TestTypedOverloadReplies:
    """Worker-side backpressure crosses the process boundary typed."""

    @pytest.mark.parametrize("error_type", ["QueueFullError", "OverloadError"])
    def test_reply_maps_to_typed_retryable_error(self, orch, error_type):
        from repro.serve import OverloadError

        pending = _pend(orch, shard=0)
        orch._resolve(Reply(
            request_id=pending.envelope.request_id,
            error_type=error_type,
            error="worker saturated",
            worker="worker-0.1",
            shard=0,
        ))
        expected = (
            QueueFullError if error_type == "QueueFullError" else OverloadError
        )
        with pytest.raises(expected, match="worker-0.1") as excinfo:
            pending.handle.result(timeout=1.0)
        assert excinfo.value.retryable


class TestBreakerRouting:
    def _key_for_shard(self, orch, shard: int) -> str:
        for index in range(1000):
            key = f"key-{index}"
            if orch._ring.route(key) == shard:
                return key
        raise AssertionError("no key found")

    def test_open_breaker_diverts_to_live_sibling(self, orch):
        key = self._key_for_shard(orch, 0)
        orch._breakers[0].record_failure()
        orch._breakers[0].record_failure()  # threshold 2: opens
        assert orch._route(key) == 1
        counters = orch.metrics.snapshot()["counters"]
        assert counters["breaker.opened"] == 1
        assert counters["breaker.diverted"] == 1

    def test_closed_breaker_keeps_ring_primary(self, orch):
        key = self._key_for_shard(orch, 0)
        assert orch._route(key) == 0
        assert orch.metrics.snapshot()["counters"]["breaker.diverted"] == 0

    def test_all_breakers_open_falls_back_to_primary(self, orch):
        key = self._key_for_shard(orch, 0)
        for breaker in orch._breakers.values():
            breaker.record_failure()
            breaker.record_failure()
        assert orch._route(key) == 0

    def test_reply_from_shard_closes_its_breaker(self, orch):
        orch._breakers[0].record_failure()
        orch._breakers[0].record_failure()
        pending = _pend(orch, shard=0)
        orch._resolve(Reply(
            request_id=pending.envelope.request_id,
            label="water",
            worker="worker-0.2",
            shard=0,
        ))
        from repro.resilience import CLOSED

        assert orch._breakers[0].state == CLOSED
        assert orch.metrics.snapshot()["counters"]["breaker.closed"] == 1


class TestHedging:
    def test_slow_pending_is_hedged_once_to_sibling(self, orch):
        pending = _pend(orch, shard=0)
        pending.submitted_mono -= 1.0  # well past hedge_after_s=0.05
        orch._maybe_hedge()
        hedged = orch.broker.endpoint(1).consume(timeout=1.0)
        assert hedged.request_id == pending.envelope.request_id
        assert hedged.hedged and hedged.shard == 1
        assert hedged.attempts == pending.envelope.attempts  # not a retry
        assert pending.hedged
        assert orch.metrics.snapshot()["counters"]["cluster.hedges"] == 1
        # Already hedged: the monitor never hedges the same request twice.
        orch._maybe_hedge()
        assert orch.broker.endpoint(1).consume(timeout=0.05) is None

    def test_fresh_pending_is_not_hedged(self, orch):
        _pend(orch, shard=0)
        orch._maybe_hedge()
        assert orch.broker.endpoint(1).consume(timeout=0.05) is None
        assert orch.metrics.snapshot()["counters"]["cluster.hedges"] == 0

    def test_single_live_shard_never_hedges(self, orch):
        orch._slots[1].failed = True
        pending = _pend(orch, shard=0)
        pending.submitted_mono -= 1.0
        orch._maybe_hedge()
        assert orch.metrics.snapshot()["counters"]["cluster.hedges"] == 0

    def test_adaptive_threshold_needs_observations(self, tmp_path):
        from repro.cluster.client import (
            HEDGE_LATENCY_FACTOR,
            HEDGE_MIN_OBSERVATIONS,
        )

        config = ClusterConfig(num_workers=2, hedge_after_s=None)
        orch = ClusterClient(tmp_path / "registry", config=config)
        assert orch._hedge_threshold_s() is None  # no latency history yet
        for _ in range(HEDGE_MIN_OBSERVATIONS):
            orch._latency_hist.observe(100.0)
        threshold = orch._hedge_threshold_s()
        assert threshold == pytest.approx(
            0.1 * HEDGE_LATENCY_FACTOR, rel=0.2
        )


class TestAdmissionControl:
    def test_zero_timeout_fails_at_admission_without_publishing(self, orch):
        from repro.serve import DeadlineExceededError

        orch._started = True  # traffic accepted; no workers needed
        handle = orch.submit(object(), timeout=0.0)
        with pytest.raises(DeadlineExceededError, match="admission"):
            handle.result(timeout=1.0)
        counters = orch.metrics.snapshot()["counters"]
        assert counters["deadline.expired_admission"] == 1
        assert counters["requests.submitted"] == 0
        assert orch._pending == {}

    def test_negative_priority_is_shed_under_depth_pressure(self, orch):
        from repro.serve import OverloadError

        orch._started = True
        capacity = orch.config.queue_capacity
        for index in range(int(capacity * 0.9)):
            _pend(orch, shard=0, request_id=f"r-fill-{index}")
        with pytest.raises(OverloadError):
            orch.submit(object(), timeout=None, priority=-1)
        assert orch.metrics.snapshot()["counters"]["requests.shed"] == 1
