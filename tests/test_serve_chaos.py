"""Chaos tests: the serving layer under injected stage faults.

Complements ``test_serve_service.py``'s generic fault-isolation tests
with the robustness-PR scenarios: fault *counters* in the metrics
snapshot, deterministic :class:`CorruptTraceError` fast-fail, real
fault-injected captures flowing through the production runner, and the
queue draining (never wedging) after a fault burst.
"""

import threading
import time

import pytest

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.faults import AntennaDropout, SubcarrierErasure, inject_session
from repro.csi.quality import CorruptTraceError, DegradedTraceWarning
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.resilience import RetryPolicy
from repro.serve import service as serve_service
from repro.serve import DeadlineExceededError, IdentificationService, ServiceConfig
from repro.serve.service import RequestHandle
from repro.serve.workers import default_runner


@pytest.fixture(scope="module")
def deployment():
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=6, seed=2,
    )
    train, test = split_dataset(dataset)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    return wimi, train, test


class TestFaultCounters:
    def test_fault_on_first_attempt_retried_and_counted(
        self, deployment, monkeypatch
    ):
        wimi, _, test = deployment
        failures = {"remaining": 1}
        lock = threading.Lock()

        def flaky(view, sessions):
            with lock:
                if failures["remaining"] > 0:
                    failures["remaining"] -= 1
                    raise TimeoutError("injected stage fault")
            return default_runner(view, sessions)

        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.001)
        config = ServiceConfig(
            num_workers=1, max_batch_size=1, retry_budget=2
        )
        with IdentificationService(wimi, config, runner=flaky) as service:
            handle = service.submit(test[0])
            assert handle.result(timeout=30.0) == wimi.identify(test[0])
            counters = service.snapshot()["counters"]
        # The injected fault is visible by type, and the second attempt
        # (the free isolated re-run after a batch fault) recovered.
        assert counters["faults.total"] == 1
        assert counters["faults.TimeoutError"] == 1
        assert counters["requests.failed"] == 0
        assert handle.attempts == 2

    def test_batch_isolation_counted(self, deployment):
        wimi, _, test = deployment
        poisoned = test[0]

        def runner(view, sessions):
            if any(s is poisoned for s in sessions):
                raise ValueError("poisoned co-rider")
            return default_runner(view, sessions)

        config = ServiceConfig(
            num_workers=1, max_batch_size=8, retry_budget=0
        )
        with IdentificationService(wimi, config, runner=runner) as service:
            handles = service.submit_many([poisoned] + test[1:])
            with pytest.raises(ValueError):
                handles[0].result(timeout=30.0)
            for handle in handles[1:]:
                assert handle.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        assert counters["faults.batch_isolated"] >= 1
        assert counters["faults.ValueError"] >= 1
        assert counters["faults.total"] >= 2  # batch fault + isolated retry

    def test_zero_traffic_snapshot_has_fault_counter(self, deployment):
        wimi, _, _ = deployment
        with IdentificationService(wimi) as service:
            counters = service.snapshot()["counters"]
        assert counters["faults.total"] == 0


class TestCorruptTraceFastFail:
    def test_corrupt_error_is_not_retried(self, deployment, monkeypatch):
        wimi, _, test = deployment
        attempts = {"count": 0}
        lock = threading.Lock()

        def rejecting(view, sessions):
            with lock:
                attempts["count"] += 1
            raise CorruptTraceError("structurally broken capture")

        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.001)
        config = ServiceConfig(
            num_workers=1, max_batch_size=1, retry_budget=5
        )
        with IdentificationService(wimi, config, runner=rejecting) as service:
            handle = service.submit(test[0])
            with pytest.raises(CorruptTraceError):
                handle.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        # Deterministic rejection: the budget of 5 retries is not burned.
        # (Batch attempt + one isolated attempt, nothing more.)
        assert attempts["count"] == 2
        assert counters["requests.retries"] == 0
        assert counters["faults.CorruptTraceError"] == 2
        assert counters["requests.failed"] == 1

    def test_real_corrupt_capture_rejected_through_production_runner(
        self, deployment
    ):
        wimi, _, test = deployment
        # Kill every subcarrier and two antennas: below any threshold.
        hopeless = inject_session(
            test[0],
            (
                AntennaDropout(antenna=0, mode="nan"),
                AntennaDropout(antenna=1, mode="nan"),
                SubcarrierErasure(0.9, scope="column"),
            ),
            seed=0,
        )
        config = ServiceConfig(num_workers=1, retry_budget=3)
        with IdentificationService(wimi, config) as service:
            bad = service.submit(hopeless)
            good = service.submit(test[1])
            with pytest.raises(CorruptTraceError, match="quality gate"):
                bad.result(timeout=30.0)
            assert good.result(timeout=30.0) == wimi.identify(test[1])
            counters = service.snapshot()["counters"]
        assert counters["faults.CorruptTraceError"] >= 1
        assert counters["requests.retries"] == 0

    def test_degraded_capture_still_served(self, deployment):
        wimi, _, test = deployment
        limping = inject_session(
            test[0], (AntennaDropout(antenna=0, mode="nan"),), seed=0
        )
        with IdentificationService(wimi) as service:
            with pytest.warns(DegradedTraceWarning):
                handle = service.submit(limping)
                label = handle.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        assert label in ("pure_water", "pepsi", "oil")
        assert counters["requests.completed"] == 1
        assert counters["requests.failed"] == 0


class TestQueueNeverWedges:
    def test_deadline_expiry_during_backoff_drains_queue(
        self, deployment, monkeypatch
    ):
        wimi, _, test = deployment

        def always_down(view, sessions):
            raise TimeoutError("backend down")

        # Long backoff: the doomed request's deadline expires while the
        # worker sleeps between its retries.
        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.05)
        config = ServiceConfig(
            num_workers=1, max_batch_size=1, retry_budget=3
        )
        with IdentificationService(wimi, config, runner=always_down) as service:
            doomed = service.submit(test[0], timeout=0.02)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
            counters = service.snapshot()["counters"]
            assert counters["requests.expired"] == 1
            assert service.metrics.gauge("inflight").value == 0
            assert service.metrics.gauge("workers.alive").value == 1

    def test_deadline_lapsing_in_backoff_fails_typed(
        self, deployment, monkeypatch
    ):
        """A retry whose backoff outlives the deadline never runs."""
        wimi, _, test = deployment
        calls = []

        def always_down(view, sessions):
            calls.append(len(sessions))
            raise TimeoutError("backend down")

        timeout = 0.5
        # A fixed backoff longer than the whole deadline.
        monkeypatch.setattr(
            RetryPolicy, "sleep",
            lambda self, attempt: time.sleep(1.5 * timeout),
        )
        config = ServiceConfig(num_workers=1, max_batch_size=1, retry_budget=1)
        with IdentificationService(wimi, config, runner=always_down) as service:
            doomed = service.submit(test[0], timeout=timeout)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        assert counters["deadline.expired_retry"] == 1
        assert counters["requests.retries"] == 1
        # The batch attempt and the first isolated one; no attempt after
        # the deadline.
        assert calls == [1, 1]

    def test_metrics_settle_before_the_handle_resolves(
        self, deployment, monkeypatch
    ):
        """A caller woken by result() reads final counters and gauges."""
        wimi, _, test = deployment
        started, gate = threading.Event(), threading.Event()
        seen = {}

        def gated(view, sessions):
            started.set()
            gate.wait(30.0)
            return ["water"] * len(sessions)

        def reading(handle, name):
            def settle(outcome):
                seen[name] = (
                    service.metrics.counter("requests.completed").value,
                    service.metrics.counter("deadline.expired_dequeue").value,
                    service.metrics.counter("requests.expired").value,
                    service.metrics.gauge("inflight").value,
                )
                getattr(RequestHandle, name)(handle, outcome)
            return settle

        config = ServiceConfig(num_workers=1, max_batch_size=1, retry_budget=0)
        with IdentificationService(wimi, config, runner=gated) as service:
            running = service.submit(test[0])
            assert started.wait(30.0)
            doomed = service.submit(test[1], timeout=0.05)
            time.sleep(0.2)  # expires while the only worker is busy
            monkeypatch.setattr(
                running, "_resolve", reading(running, "_resolve")
            )
            monkeypatch.setattr(doomed, "_fail", reading(doomed, "_fail"))
            gate.set()
            assert running.result(timeout=30.0) == "water"
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
        assert seen["_resolve"] == (1, 0, 0, 0)
        assert seen["_fail"] == (1, 1, 1, 0)

    def test_service_keeps_serving_after_fault_burst(self, deployment):
        wimi, _, test = deployment
        down_until = time.monotonic() + 0.05

        def intermittent(view, sessions):
            if time.monotonic() < down_until:
                raise ConnectionError("burst outage")
            return default_runner(view, sessions)

        config = ServiceConfig(
            num_workers=2, max_batch_size=2, retry_budget=0
        )
        with IdentificationService(wimi, config, runner=intermittent) as service:
            burst = service.submit_many(test * 2)
            outcomes = []
            for handle in burst:
                try:
                    outcomes.append(handle.result(timeout=30.0))
                except ConnectionError:
                    outcomes.append(None)
            # Whatever the burst did, the queue is drained and the
            # service still answers fresh requests correctly.
            assert len(outcomes) == len(test) * 2
            time.sleep(max(0.0, down_until - time.monotonic()))
            follow_up = service.submit_many(test)
            for handle, session in zip(follow_up, test):
                assert handle.result(timeout=30.0) == wimi.identify(session)
            counters = service.snapshot()["counters"]
            assert service.metrics.gauge("inflight").value == 0
        total = (
            counters["requests.completed"]
            + counters["requests.failed"]
            + counters["requests.expired"]
        )
        assert total == counters["requests.submitted"]
