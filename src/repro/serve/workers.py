"""Worker pool: N threads, each owning an engine view over one cache.

Each worker gets its own :class:`repro.core.pipeline.WiMi` view (via
``WiMi.clone_view``): private ``PipelineEngine`` and hook list, shared
calibration, classifier and :class:`repro.engine.StageCache`.  Workers
therefore never contend on engine-local state, while every artifact one
worker computes is immediately reusable by the others.

Fault isolation is per request: a batch whose engine call raises falls
back to request-at-a-time execution, so a poisoned session fails only
itself (its handle carries the error) and the co-scheduled sessions
still resolve.  Each failing request is retried under a
:class:`repro.resilience.RetryPolicy` (budget-capped exponential
backoff with full jitter) before its error is returned; the worker
thread itself survives any request failure.

Deadlines are enforced at three drop points, each with its own
``deadline.expired_*`` counter: *dequeue* (expired while queued),
*stage* (the engine's per-stage :func:`repro.resilience.check_deadline`
guard fired mid-pipeline -- via the ambient ``deadline_scope`` the
worker installs around every engine call), and *retry* (expired between
attempts).  The legacy ``requests.expired`` counter aggregates all of
them.

Every fault is surfaced in the metrics registry: ``faults.total`` plus
a per-exception-type ``faults.<ClassName>`` counter, and
``faults.batch_isolated`` whenever a whole batch had to fall back to
request-at-a-time execution.  :class:`repro.csi.quality.CorruptTraceError`
is treated as *deterministic* -- a structurally broken capture cannot
become valid by retrying -- so it fails the request immediately instead
of burning the backoff budget.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable

from repro.core.pipeline import WiMi
from repro.resilience import (
    Deadline,
    DeadlineExpiredError,
    RetryPolicy,
    deadline_scope,
)
from repro.serve.metrics import MetricsRegistry

#: How often workers re-check the stop event while idle (seconds).
_IDLE_POLL_S = 0.02


def default_runner(view: WiMi, sessions: list) -> list[str]:
    """The production batch path: one engine batch identify call."""
    return view.identify_batch(sessions)


class Worker(threading.Thread):
    """One serving thread; see module docstring for the semantics."""

    def __init__(
        self,
        name: str,
        view: WiMi,
        dispatch: queue.Queue,
        metrics: MetricsRegistry,
        retry_policy: RetryPolicy,
        runner: Callable[[WiMi, list], list[str]],
        stop_event: threading.Event,
        deadline_error: type[Exception],
        latency_observer: Callable[[float], None] | None = None,
    ):
        super().__init__(name=name, daemon=True)
        self.view = view
        self.dispatch = dispatch
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.runner = runner
        self.stop_event = stop_event
        self.deadline_error = deadline_error
        self.latency_observer = latency_observer

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.metrics.gauge("workers.alive").inc()
        try:
            while True:
                try:
                    batch = self.dispatch.get(timeout=_IDLE_POLL_S)
                except queue.Empty:
                    if self.stop_event.is_set():
                        return
                    continue
                self._process_batch(batch)
        finally:
            self.metrics.gauge("workers.alive").dec()

    # ------------------------------------------------------------------

    def _process_batch(self, batch: list) -> None:
        """Run one batch with per-request fault isolation."""
        now = time.monotonic()
        live = []
        for request in batch:
            self.metrics.histogram("queue_wait_ms").observe(
                (now - request.submitted_at) * 1000.0
            )
            if request.expired(now):
                self._fail(
                    request,
                    self.deadline_error(
                        "deadline passed while the request was queued"
                    ),
                    expired="dequeue",
                    inflight=False,
                )
            else:
                live.append(request)
        if not live:
            return
        self.metrics.gauge("inflight").inc(len(live))
        for request in live:
            request.handle.attempts += 1
            request.handle.batch_size = len(live)
        try:
            with deadline_scope(self._batch_deadline(live)):
                labels = self.runner(
                    self.view, [request.session for request in live]
                )
            if len(labels) != len(live):
                raise RuntimeError(
                    f"runner returned {len(labels)} labels for "
                    f"{len(live)} sessions"
                )
        except DeadlineExpiredError as exc:
            # The earliest deadline in the batch lapsed mid-pipeline.
            # Requests that are themselves expired fail here; the rest
            # re-run isolated under their own deadlines.
            now = time.monotonic()
            for request in live:
                if request.expired(now):
                    self._fail(
                        request, self.deadline_error(str(exc)),
                        expired="stage",
                    )
                else:
                    self._run_isolated(request)
            return
        except Exception as exc:
            # Batch path failed: isolate the fault by running each
            # request on its own (with its remaining retry budget).
            self._record_fault(exc)
            self.metrics.counter("faults.batch_isolated").inc()
            for request in live:
                self._run_isolated(request)
            return
        for request, label in zip(live, labels):
            self._resolve(request, str(label))

    def _run_isolated(self, request) -> None:
        """One request, attempted until success or budget exhaustion.

        The first isolated attempt is *not* counted against the retry
        budget -- the batch attempt may have failed because of a
        different (poisoned) co-rider.  Errors the policy classifies as
        non-retryable (by default :class:`CorruptTraceError` -- a
        structurally broken capture is deterministic) short-circuit the
        budget: retrying them would only delay the rejection.  Expiry
        is re-checked after each backoff sleep.
        """
        error: BaseException | None = None
        for retry in range(self.retry_policy.budget + 1):
            if retry > 0 and not request.expired(time.monotonic()):
                self.metrics.counter("requests.retries").inc()
                self.retry_policy.sleep(retry - 1)
            if request.expired(time.monotonic()):
                self._fail(
                    request,
                    self.deadline_error("deadline passed during retries"),
                    expired="retry",
                )
                return
            request.handle.attempts += 1
            try:
                with deadline_scope(self._request_deadline(request)):
                    labels = self.runner(self.view, [request.session])
                self._resolve(request, str(labels[0]))
                return
            except DeadlineExpiredError as exc:
                # No point retrying: the deadline will not un-expire.
                self._fail(
                    request, self.deadline_error(str(exc)), expired="stage"
                )
                return
            except Exception as exc:  # noqa: BLE001 -- isolation boundary
                error = exc
                self._record_fault(exc)
                if not self.retry_policy.is_retryable(exc):
                    break
        assert error is not None
        self._fail(request, error)

    # ------------------------------------------------------------------

    @staticmethod
    def _request_deadline(request) -> Deadline | None:
        """The ambient deadline for one request's engine run."""
        if request.deadline is None:
            return None
        return Deadline(request.deadline)

    @staticmethod
    def _batch_deadline(live: list) -> Deadline | None:
        """The scope for a batch run: its *earliest* member deadline.

        When it fires mid-pipeline the batch falls back to isolated
        execution, where each request runs under its own deadline -- so
        a short-deadline co-rider cannot silently extend (max) nor a
        long-deadline one silently truncate (nothing) the others.
        """
        deadlines = [r.deadline for r in live if r.deadline is not None]
        if not deadlines:
            return None
        return Deadline(min(deadlines))

    def _resolve(self, request, label: str) -> None:
        request.handle.latency_s = time.monotonic() - request.submitted_at
        latency_ms = request.handle.latency_s * 1000.0
        self.metrics.histogram("latency_ms").observe(latency_ms)
        if self.latency_observer is not None:
            self.latency_observer(latency_ms)
        self.metrics.counter("requests.completed").inc()
        self.metrics.gauge("inflight").dec()
        request.handle._resolve(label)

    def _fail(self, request, error, expired=None, inflight=True) -> None:
        """Fail one request; ``expired`` names its deadline drop point.

        Both settle paths update metrics before the handle, so a caller
        woken by ``result()`` reads them settled.
        """
        request.handle.latency_s = time.monotonic() - request.submitted_at
        if expired is not None:
            self.metrics.counter(f"deadline.expired_{expired}").inc()
            self.metrics.counter("requests.expired").inc()
        self.metrics.counter("requests.failed").inc()
        if inflight:
            self.metrics.gauge("inflight").dec()
        request.handle._fail(error)

    def _record_fault(self, error: BaseException) -> None:
        """Count one raised fault under its exception type."""
        self.metrics.counter("faults.total").inc()
        self.metrics.counter(f"faults.{type(error).__name__}").inc()


class WorkerPool:
    """The service's N workers plus their engine views.

    Args:
        wimi: The fitted pipeline whose views the workers own.
        dispatch: Bounded batch queue fed by the micro-batcher.
        metrics: Shared registry.
        num_workers: Thread count.
        retry_policy: Shared :class:`repro.resilience.RetryPolicy`
            (budget, jittered backoff, retryability classifier).
        runner: Batch execution function (None = ``default_runner``).
        stop_event: Shared shutdown signal.
        deadline_error: Exception type raised for expired requests
            (injected to avoid a circular import with ``service``).
        hook_factory: Called once per worker; the result is registered
            as a stage-event hook on that worker's engine view.
        latency_observer: Optional callback fed each completed
            request's end-to-end latency in ms (the load shedder's
            EWMA input).
    """

    def __init__(
        self,
        wimi: WiMi,
        dispatch: queue.Queue,
        metrics: MetricsRegistry,
        num_workers: int,
        retry_policy: RetryPolicy,
        runner: Callable[[WiMi, list], list[str]] | None,
        stop_event: threading.Event,
        deadline_error: type[Exception],
        hook_factory: Callable[[], Callable] | None = None,
        latency_observer: Callable[[float], None] | None = None,
    ):
        self.workers: list[Worker] = []
        for index in range(num_workers):
            view = wimi.clone_view()
            if hook_factory is not None:
                view.engine.add_hook(hook_factory())
            self.workers.append(
                Worker(
                    name=f"repro-serve-worker-{index}",
                    view=view,
                    dispatch=dispatch,
                    metrics=metrics,
                    retry_policy=retry_policy,
                    runner=runner if runner is not None else default_runner,
                    stop_event=stop_event,
                    deadline_error=deadline_error,
                    latency_observer=latency_observer,
                )
            )

    def start(self) -> None:
        """Start every worker thread."""
        for worker in self.workers:
            worker.start()

    def join(self, timeout: float | None = None) -> None:
        """Join every worker thread (each gets the full timeout)."""
        for worker in self.workers:
            worker.join(timeout=timeout)

    def __len__(self) -> int:
        return len(self.workers)
