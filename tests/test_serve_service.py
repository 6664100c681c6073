"""Tests for the online identification service.

One small fitted deployment (module-scoped) backs every test; each test
builds its own service over it, so the scenarios stay independent while
the expensive simulation runs once.
"""

import threading
import time

import pytest

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)
from repro.serve import (
    DeadlineExceededError,
    IdentificationService,
    QueueFullError,
    ServiceConfig,
    ServiceStoppedError,
)
from repro.serve import workers
from repro.serve import service as serve_service
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


class TestLifecycle:
    def test_requires_fitted_pipeline(self):
        unfitted = WiMi({"pure_water": 1.0})
        with pytest.raises(ValueError, match="fitted"):
            IdentificationService(unfitted)

    def test_submit_before_start_rejected(self, deployment):
        wimi, _, test = deployment
        service = IdentificationService(wimi)
        with pytest.raises(ServiceStoppedError):
            service.submit(test[0])

    def test_start_is_idempotent_and_stop_clean(self, deployment):
        wimi, _, test = deployment
        service = IdentificationService(wimi).start()
        assert service.start() is service
        assert service.is_running
        service.stop()
        assert not service.is_running
        with pytest.raises(ServiceStoppedError):
            service.submit(test[0])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(retry_budget=-1)

    def test_draining_stop_runs_the_batch_still_filling(
        self, deployment, monkeypatch
    ):
        """stop(drain=True) while a worker holds a request in a batch
        that is still filling must run that batch, not fail it."""
        wimi, _, test = deployment
        monkeypatch.setattr(workers, "MAX_WAIT_S", 0.2)
        service = IdentificationService(wimi, ServiceConfig(num_workers=1))
        service.start()
        handle = service.submit(test[0])
        time.sleep(0.01)
        service.stop(drain=True)
        assert handle.result(timeout=5.0) == wimi.identify(test[0])


class TestServingCorrectness:
    def test_matches_sequential_identify(self, deployment):
        wimi, _, test = deployment
        expected = [wimi.identify(s) for s in test]
        config = ServiceConfig(num_workers=2, max_batch_size=4)
        with IdentificationService(wimi, config) as service:
            handles = service.submit_many(test)
            labels = [h.result(timeout=30.0) for h in handles]
        assert labels == expected

    def test_metrics_account_for_every_request(self, deployment):
        wimi, _, test = deployment
        workload = test * 3
        with IdentificationService(wimi, ServiceConfig()) as service:
            handles = service.submit_many(workload)
            for h in handles:
                h.result(timeout=30.0)
            snap = service.snapshot()
        counters = snap["counters"]
        assert counters["requests.submitted"] == len(workload)
        assert counters["requests.completed"] == len(workload)
        assert counters["requests.failed"] == 0
        latency = snap["histograms"]["latency_ms"]
        assert latency["count"] == len(workload)
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        batches = snap["histograms"]["batch_size"]
        assert batches["count"] >= 1
        # Stage events from the worker engines reached the registry.
        assert any(k.startswith("stage.") for k in counters)
        # Per-request handle metadata is filled in.
        assert all(h.latency_s is not None for h in handles)
        assert all(h.attempts == 1 for h in handles)
        assert all(h.batch_size >= 1 for h in handles)

    def test_co_scheduled_repeats_share_the_stage_cache(self, deployment):
        wimi, _, test = deployment
        # Same session many times: all but the first resolution of each
        # stage must be cache hits, visible in the service snapshot.
        workload = [test[0]] * 6
        with IdentificationService(
            wimi, ServiceConfig(num_workers=1, max_batch_size=6)
        ) as service:
            for h in service.submit_many(workload):
                h.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        # At most one cold denoiser pass (2 traces); every repeat hits.
        assert counters.get("stage.amplitude_denoise.executions", 0) <= 2
        assert counters.get("stage.amplitude_denoise.hits", 0) >= 10
        assert counters.get("stage.classify.hits", 0) >= 5


class TestBackpressure:
    def test_queue_full_rejects_explicitly(self, deployment):
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(
            queue_capacity=2, max_batch_size=1, num_workers=1,
        )
        service = IdentificationService(wimi, config, runner=stalled)
        accepted, rejected = [], 0
        with service:
            # The worker's batch + inbox can absorb only a handful; keep
            # submitting until the bounded queue pushes back.
            for _ in range(16):
                try:
                    accepted.append(service.submit(test[0]))
                except QueueFullError:
                    rejected += 1
            assert rejected > 0
            assert service.snapshot()["counters"]["requests.rejected"] == rejected
            release.set()
            # Accepted requests were *not* dropped: all resolve.
            for handle in accepted:
                assert handle.result(timeout=30.0)

    def test_accepts_exactly_capacity_behind_a_running_request(
        self, deployment
    ):
        """Nothing buffers between the inbox and a busy worker: with the
        one worker stalled, exactly ``queue_capacity`` more are taken."""
        wimi, _, test = deployment
        started, release = threading.Event(), threading.Event()

        def stalled(view, sessions):
            started.set()
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(
            queue_capacity=4, max_batch_size=1, num_workers=1,
        )
        with IdentificationService(wimi, config, runner=stalled) as service:
            accepted = [service.submit(test[0])]
            assert started.wait(timeout=30.0)
            with pytest.raises(QueueFullError):
                for _ in range(16):
                    accepted.append(service.submit(test[0]))
                    # Room for anything that could pull from the inbox.
                    time.sleep(0.02)
            release.set()
            assert len(accepted) == 5
            for handle in accepted:
                assert handle.result(timeout=30.0)

    def test_deadline_expires_in_queue(self, deployment):
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(num_workers=1, max_batch_size=1)
        with IdentificationService(wimi, config, runner=stalled) as service:
            blocker = service.submit(test[0])
            doomed = service.submit(test[1], timeout=0.01)
            time.sleep(0.05)
            release.set()
            assert blocker.result(timeout=30.0)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30.0)
            assert service.snapshot()["counters"]["requests.expired"] == 1


class TestFaultIsolation:
    def test_poisoned_request_fails_alone(self, deployment, monkeypatch):
        wimi, _, test = deployment
        poisoned = test[0]

        def runner(view, sessions):
            if any(s is poisoned for s in sessions):
                raise ValueError("poisoned session")
            return default_runner(view, sessions)

        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.0)
        config = ServiceConfig(
            num_workers=1, max_batch_size=8, retry_budget=1
        )
        with IdentificationService(wimi, config, runner=runner) as service:
            # Co-schedule the poison with healthy requests in one batch.
            handles = service.submit_many([poisoned] + test[1:])
            bad, good = handles[0], handles[1:]
            with pytest.raises(ValueError, match="poisoned"):
                bad.result(timeout=30.0)
            # Every co-scheduled request still completes correctly.
            for handle, session in zip(good, test[1:]):
                assert handle.result(timeout=30.0) == wimi.identify(session)
            # The worker survived: the service keeps serving.
            assert service.submit(test[1]).result(timeout=30.0)
            counters = service.snapshot()["counters"]
            assert counters["requests.failed"] == 1
            assert service.metrics.gauge("workers.alive").value == 1

    def test_transient_fault_retried_with_backoff(
        self, deployment, monkeypatch
    ):
        wimi, _, test = deployment
        failures = {"remaining": 2}
        lock = threading.Lock()

        def flaky(view, sessions):
            with lock:
                if failures["remaining"] > 0:
                    failures["remaining"] -= 1
                    raise TimeoutError("transient backend glitch")
            return default_runner(view, sessions)

        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.001)
        config = ServiceConfig(
            num_workers=1, max_batch_size=1, retry_budget=3
        )
        with IdentificationService(wimi, config, runner=flaky) as service:
            handle = service.submit(test[0])
            assert handle.result(timeout=30.0) == wimi.identify(test[0])
            counters = service.snapshot()["counters"]
        assert counters["requests.retries"] >= 1
        assert counters["requests.completed"] == 1
        assert handle.attempts > 1

    def test_retry_budget_exhaustion_returns_the_error(
        self, deployment, monkeypatch
    ):
        wimi, _, test = deployment

        def always_down(view, sessions):
            raise ConnectionError("backend down")

        monkeypatch.setattr(serve_service, "RETRY_BACKOFF_BASE_S", 0.0)
        config = ServiceConfig(num_workers=1, retry_budget=2)
        with IdentificationService(wimi, config, runner=always_down) as service:
            handle = service.submit(test[0])
            with pytest.raises(ConnectionError):
                handle.result(timeout=30.0)
            counters = service.snapshot()["counters"]
        assert counters["requests.retries"] == 2
        assert counters["requests.failed"] == 1


class TestHandles:
    def test_result_wait_timeout(self, deployment):
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        with IdentificationService(
            wimi, ServiceConfig(num_workers=1), runner=stalled
        ) as service:
            handle = service.submit(test[0])
            assert not handle.done()
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.01)
            release.set()
            assert handle.result(timeout=30.0)
            assert handle.done()
            assert handle.exception() is None

    def test_stop_without_drain_fails_pending(self, deployment):
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(num_workers=1, max_batch_size=1)
        service = IdentificationService(wimi, config, runner=stalled)
        service.start()
        handles = [service.submit(test[0]) for _ in range(4)]
        service.stop(drain=False, timeout=1.0)
        release.set()
        outcomes = []
        for handle in handles:
            try:
                outcomes.append(handle.result(timeout=5.0))
            except (ServiceStoppedError, TimeoutError):
                outcomes.append(None)
        # At least the deep-queued requests were failed fast, none hang
        # forever, and nothing was silently dropped.
        assert len(outcomes) == 4


class TestHandleEdges:
    def test_exception_wait_timeout_raises(self, deployment):
        """exception(timeout=...) must raise TimeoutError while the
        request is unresolved, not return None (None means success)."""
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        with IdentificationService(
            wimi, ServiceConfig(num_workers=1), runner=stalled
        ) as service:
            handle = service.submit(test[0])
            with pytest.raises(TimeoutError):
                handle.exception(timeout=0.01)
            release.set()
            assert handle.exception(timeout=30.0) is None
            assert handle.result(timeout=1.0)

    def test_exception_returns_failure_without_raising(self, deployment):
        wimi, _, test = deployment

        def poisoned(view, sessions):
            raise ValueError("bad capture")

        config = ServiceConfig(num_workers=1, retry_budget=0)
        with IdentificationService(
            wimi, config, runner=poisoned
        ) as service:
            handle = service.submit(test[0])
            error = handle.exception(timeout=30.0)
            assert isinstance(error, ValueError)
            with pytest.raises(ValueError):
                handle.result(timeout=1.0)

    def test_stop_without_drain_cancels_queued_with_stop_error(
        self, deployment
    ):
        """drain=False semantics: requests never picked up by a worker
        are failed with ServiceStoppedError, promptly and explicitly."""
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(num_workers=1, max_batch_size=1)
        service = IdentificationService(wimi, config, runner=stalled)
        service.start()
        handles = [service.submit(test[0]) for _ in range(6)]
        service.stop(drain=False, timeout=0.5)
        release.set()
        assert not service.is_running
        stopped = 0
        for handle in handles:
            error = handle.exception(timeout=5.0)
            if isinstance(error, ServiceStoppedError):
                stopped += 1
        # The stalled batch may finish or fail, but everything still
        # queued behind it must be cancelled with the explicit error.
        assert stopped >= len(handles) - 2
        with pytest.raises(ServiceStoppedError):
            service.submit(test[0])


class TestAdmissionControl:
    """Deadline and load-shed checks at the service's front door."""

    def test_expired_deadline_fails_at_admission(self, deployment):
        wimi, _, test = deployment
        config = ServiceConfig(num_workers=1)
        with IdentificationService(wimi, config) as service:
            handle = service.submit(test[0], timeout=0.0)
            with pytest.raises(DeadlineExceededError, match="admission"):
                handle.result(timeout=5.0)
            counters = service.snapshot()["counters"]
            assert counters["deadline.expired_admission"] == 1
            # Never enqueued: the healthy path is untouched.
            assert counters["requests.submitted"] == 0
            assert service.identify(test[0], timeout=30.0)

    def test_negative_priority_shed_under_depth_pressure(self, deployment):
        from repro.serve import OverloadError

        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(
            queue_capacity=10, max_batch_size=1, num_workers=1,
        )
        service = IdentificationService(wimi, config, runner=stalled)
        shed = 0
        accepted = []
        with service:
            for _ in range(16):
                try:
                    accepted.append(
                        service.submit(test[0], priority=-1)
                    )
                except OverloadError as error:
                    assert error.retryable
                    shed += 1
                except QueueFullError:
                    pass
            assert shed > 0
            assert service.snapshot()["counters"]["requests.shed"] == shed
            release.set()
            for handle in accepted:
                assert handle.result(timeout=30.0)

    def test_normal_priority_never_depth_shed(self, deployment):
        # Default thresholds: depth saturation stays QueueFullError's
        # job; priority-0 traffic is never shed on queue depth alone.
        wimi, _, test = deployment
        release = threading.Event()

        def stalled(view, sessions):
            release.wait(timeout=30.0)
            return default_runner(view, sessions)

        config = ServiceConfig(
            queue_capacity=4, max_batch_size=1, num_workers=1,
        )
        service = IdentificationService(wimi, config, runner=stalled)
        with service:
            outcomes = []
            for _ in range(16):
                try:
                    outcomes.append(service.submit(test[0]))
                except QueueFullError:
                    pass
            assert service.snapshot()["counters"]["requests.shed"] == 0
            release.set()
            for handle in outcomes:
                handle.result(timeout=30.0)


class TestStageDeadline:
    def test_deadline_expiring_mid_pipeline_aborts_before_next_stage(
        self, deployment
    ):
        wimi, _, _ = deployment
        catalog = default_catalog()
        # A session never seen by the shared stage cache: its stages
        # must execute, so the engine's deadline check actually fires.
        fresh = collect_dataset(
            [catalog.get("pure_water")], scene=standard_scene("lab"),
            repetitions=1, num_packets=6, seed=91,
        )["pure_water"][0]
        started = threading.Event()

        def slow_then_run(view, sessions):
            started.set()
            time.sleep(0.25)  # outlive the deadline before the engine runs
            return default_runner(view, sessions)

        config = ServiceConfig(num_workers=1, retry_budget=0)
        with IdentificationService(
            wimi, config, runner=slow_then_run
        ) as service:
            handle = service.submit(fresh, timeout=0.2)
            assert started.wait(timeout=10.0)
            with pytest.raises(DeadlineExceededError):
                handle.result(timeout=30.0)
            counters = service.snapshot()["counters"]
            assert counters["deadline.expired_stage"] >= 1
