"""Serving workers: N threads, each pulling its own micro-batches.

Each worker owns its own :class:`repro.core.pipeline.WiMi` view (via
``WiMi.clone_view``): private ``PipelineEngine`` and hook list, shared
calibration, classifier and :class:`repro.engine.StageCache`.  Workers
therefore never contend on engine-local state, while every artifact one
worker computes is immediately reusable by the others.

Micro-batching: an idle worker takes the first waiting request from the
service's bounded inbox, then holds the batch open for at most
:data:`MAX_WAIT_S` while it fills to ``max_batch_size``.  Under load the
wait never triggers (the queue has co-riders ready) and batches run
full; under trickle traffic a lone request pays at most ``MAX_WAIT_S``
extra latency.  One worker fills at a time (a lock shared by the
service's workers is held across the fill), so batches form as one
batcher would form them; requests that no worker has taken stay in the
inbox, so a saturated pool pushes back at ``submit``.  A worker runs any
batch it holds before it checks the stop event, so a draining stop
never strands a request mid-fill.

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
from repro.serve.service import DeadlineExceededError

#: How often an idle worker re-checks the stop event (seconds).
_IDLE_POLL_S = 0.02
#: Longest a worker holds an incomplete batch open waiting for
#: co-riders before running it anyway (seconds).
MAX_WAIT_S = 0.005


def default_runner(view: WiMi, sessions: list) -> list[str]:
    """The production batch path: one engine batch identify call."""
    return view.identify_batch(sessions)


class Worker(threading.Thread):
    """One serving thread; see module docstring for the semantics."""

    def __init__(
        self,
        name: str,
        view: WiMi,
        inbox: queue.Queue,
        fill_lock: threading.Lock,
        max_batch_size: int,
        metrics: MetricsRegistry,
        retry_policy: RetryPolicy,
        runner: Callable[[WiMi, list], list[str]],
        stop_event: threading.Event,
    ):
        super().__init__(name=name, daemon=True)
        self.view = view
        self.inbox = inbox
        self.fill_lock = fill_lock
        self.max_batch_size = max_batch_size
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.runner = runner
        self.stop_event = stop_event

    # ------------------------------------------------------------------

    def run(self) -> None:
        self.metrics.gauge("workers.alive").inc()
        try:
            while not self.stop_event.is_set():
                batch = self._collect()
                if batch:
                    self.metrics.histogram("batch_size").observe(len(batch))
                    self.metrics.gauge("queue_depth").set(self.inbox.qsize())
                    self._process_batch(batch)
        finally:
            self.metrics.gauge("workers.alive").dec()

    def _collect(self) -> list:
        """One batch: the first request blocks (poll-checking stop),
        then the batch fills until size or deadline."""
        with self.fill_lock:
            try:
                first = self.inbox.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                return []
            batch = [first]
            deadline = time.monotonic() + MAX_WAIT_S
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    batch.append(self.inbox.get(timeout=remaining))
                except queue.Empty:
                    break
        return batch

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
                    DeadlineExceededError(
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
                        request, DeadlineExceededError(str(exc)),
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
                    DeadlineExceededError("deadline passed during retries"),
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
                    request, DeadlineExceededError(str(exc)), expired="stage"
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
        self.metrics.histogram("latency_ms").observe(
            request.handle.latency_s * 1000.0
        )
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
