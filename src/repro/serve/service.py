"""Request layer of the online identification service.

:class:`IdentificationService` turns a fitted
:class:`repro.core.pipeline.WiMi` into a traffic-serving subsystem:

* ``submit(session)`` enqueues onto a **bounded** FIFO queue and returns
  a :class:`RequestHandle` (a future).  A full queue rejects the submit
  with :class:`QueueFullError` -- explicit backpressure, never a silent
  drop.
* A :class:`repro.serve.batcher.MicroBatcher` drains the queue under a
  max-batch-size / max-wait policy, so co-arriving sessions share one
  denoiser pass through the engine's batch path.
* A :class:`repro.serve.workers.WorkerPool` of N threads executes the
  batches, each worker owning its own engine view over one shared
  :class:`repro.engine.StageCache`.  A request that raises fails alone;
  transient faults retry with exponential backoff.
* Every hop is measured in a :class:`repro.serve.metrics.MetricsRegistry`
  (queue wait, end-to-end latency, batch sizes, retries, rejections,
  per-stage cache behaviour).

Typical use::

    wimi = WiMi(refs).fit(training_sessions)
    with IdentificationService(wimi, ServiceConfig(num_workers=4)) as svc:
        handles = [svc.submit(s) for s in sessions]
        labels = [h.result(timeout=5.0) for h in handles]
        print(svc.metrics.render_text())
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass

from repro.core.pipeline import WiMi
from repro.csi.collector import CaptureSession
from repro.csi.quality import CorruptTraceError
from repro.resilience import Backoff, LoadShedder, RetryPolicy
from repro.serve.batcher import MicroBatcher
from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
    StageEventRecorder,
)
from repro.serve.workers import WorkerPool


class ServeError(Exception):
    """Base class of all service-side request failures.

    ``retryable`` classifies the failure for callers: ``True`` means
    the same request may succeed if resubmitted (elsewhere or later),
    ``False`` means retrying is pointless (poison request, stopped
    service).
    """

    retryable = False


class QueueFullError(ServeError):
    """Submission rejected because the request queue is at capacity."""

    retryable = True


class OverloadError(ServeError):
    """Submission shed by the adaptive load shedder.

    Typed overload beats a timeout: the caller learns immediately that
    the system is saturated (retry later / elsewhere, or raise the
    request's priority) instead of discovering it via deadline lapse.
    """

    retryable = True


class DeadlineExceededError(ServeError):
    """The request's deadline passed before a worker finished it."""


class ServiceStoppedError(ServeError):
    """The service stopped before the request could run."""


#: Cap on any single retry backoff delay (seconds).
RETRY_BACKOFF_MAX_S = 0.25


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the identification service.

    Attributes:
        queue_capacity: Bounded request-queue depth; submissions beyond
            it raise :class:`QueueFullError`.
        max_batch_size: Most sessions the batcher co-schedules into one
            engine batch call.
        max_wait_s: Longest the batcher holds an incomplete batch open
            waiting for co-riders before dispatching it anyway.
        num_workers: Worker threads, each with its own engine view over
            the shared stage cache.
        retry_budget: Extra attempts (beyond the first) a failing
            request gets before its error is returned.
        backoff_base_s: Sleep before the first retry; doubles per
            subsequent retry of the same request, up to
            :data:`RETRY_BACKOFF_MAX_S`.
        dispatch_depth: Batches that may sit ready-to-run ahead of the
            workers; keeping it small propagates worker saturation back
            to the request queue (backpressure) instead of hiding it.
    """

    queue_capacity: int = 64
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    num_workers: int = 2
    retry_budget: int = 1
    backoff_base_s: float = 0.002
    dispatch_depth: int = 2

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if not 0 <= self.backoff_base_s <= RETRY_BACKOFF_MAX_S:
            raise ValueError(
                f"backoff_base_s must be in [0, {RETRY_BACKOFF_MAX_S}], "
                f"got {self.backoff_base_s}"
            )
        if self.dispatch_depth < 1:
            raise ValueError(
                f"dispatch_depth must be >= 1, got {self.dispatch_depth}"
            )


class RequestHandle:
    """Future-style handle of one submitted session.

    The service resolves it exactly once, with either a label or an
    exception; callers block on :meth:`result` (optionally bounded by a
    wait timeout, which is independent of the request's own service-side
    deadline).
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: list = []
        self._label: str | None = None
        self._error: BaseException | None = None
        #: Wall-clock seconds from submit to resolution (set on done).
        self.latency_s: float | None = None
        #: Times the request was attempted (>1 means it was retried).
        self.attempts: int = 0
        #: Size of the batch this request was last co-scheduled in.
        self.batch_size: int | None = None

    def done(self) -> bool:
        """Whether the request has been resolved."""
        return self._done.is_set()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The request's failure, or None if it succeeded.

        Raises:
            TimeoutError: If the request is still unresolved after
                ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError("request not resolved yet")
        return self._error

    def result(self, timeout: float | None = None) -> str:
        """The predicted material name.

        Blocks until resolution; re-raises the request's failure.
        """
        error = self.exception(timeout)
        if error is not None:
            raise error
        assert self._label is not None
        return self._label

    def _add_done_callback(self, fn) -> None:
        """Call ``fn(handle)`` once, when the request resolves.

        The callback runs on the resolving worker thread, or at once on
        the caller's thread if the handle is already resolved.  An
        exception it raises is logged, never propagated into the worker.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        self._call(fn)

    # -- resolution (service-internal) ---------------------------------

    def _resolve(self, label: str) -> None:
        self._settle(label, None)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error)

    def _settle(self, label: str | None, error: BaseException | None) -> None:
        with self._lock:
            if self._done.is_set():
                return
            self._label = label
            self._error = error
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._call(fn)

    def _call(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - keep the worker thread alive
            logging.getLogger(__name__).exception("done callback raised")


class _Request:
    """Internal envelope the queue/batcher/workers pass around."""

    __slots__ = ("session", "handle", "deadline", "submitted_at", "priority")

    def __init__(
        self,
        session: CaptureSession,
        handle: RequestHandle,
        deadline: float | None,
        submitted_at: float,
        priority: int = 0,
    ):
        self.session = session
        self.handle = handle
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.priority = priority

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class IdentificationService:
    """Bounded-queue, micro-batching serving front of a fitted WiMi.

    Args:
        wimi: A fitted pipeline; its calibration, classifier and stage
            cache are shared (read-only) by every worker view.
        config: Service tuning; defaults are sensible for tests.
        runner: ``runner(view, sessions) -> labels`` executed by the
            workers; defaults to ``view.identify_batch(sessions)``.
            Exposed for fault injection and for serving alternative
            heads over the same pipeline.
        metrics: Registry to record into (a private one by default).
    """

    def __init__(
        self,
        wimi: WiMi,
        config: ServiceConfig | None = None,
        runner=None,
        metrics: MetricsRegistry | None = None,
    ):
        if not wimi.is_fitted:
            raise ValueError(
                "IdentificationService needs a fitted WiMi; call fit() first"
            )
        self.wimi = wimi
        self.config = config if config is not None else ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._runner = runner
        self._inbox: queue.Queue = queue.Queue(
            maxsize=self.config.queue_capacity
        )
        self._dispatch: queue.Queue = queue.Queue(
            maxsize=self.config.dispatch_depth
        )
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._batcher: MicroBatcher | None = None
        self._pool: WorkerPool | None = None
        self._shedder = LoadShedder(self.config.queue_capacity)
        # Pre-create the instruments the snapshot readers expect even
        # under zero traffic.
        for name in (
            "requests.submitted", "requests.completed", "requests.failed",
            "requests.rejected", "requests.expired", "requests.retries",
            "requests.shed",
            "deadline.expired_admission", "deadline.expired_dequeue",
            "deadline.expired_stage", "deadline.expired_retry",
            "faults.total",
            "cache.memory_hits", "cache.disk_hits", "cache.misses",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("latency_ms")
        self.metrics.histogram("queue_wait_ms")
        self.metrics.histogram("batch_size", BATCH_SIZE_BUCKETS)
        # Durable tier visibility: 1 when the stage cache is backed by
        # an on-disk artifact store (warm-start serving), else 0.
        self.metrics.gauge("store.mounted").set(
            0.0 if self.wimi.cache.disk_store is None else 1.0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "IdentificationService":
        """Spin up the batcher and the worker pool (idempotent)."""
        with self._lock:
            if self._started:
                return self
            if self._stopped:
                raise ServiceStoppedError("service cannot be restarted")
            retry_policy = RetryPolicy(
                budget=self.config.retry_budget,
                backoff=Backoff(
                    base_s=self.config.backoff_base_s,
                    max_s=RETRY_BACKOFF_MAX_S,
                ),
                # A structurally broken capture is deterministic; see
                # Worker._run_isolated.
                retryable=lambda exc: not isinstance(exc, CorruptTraceError),
            )
            self._pool = WorkerPool(
                wimi=self.wimi,
                dispatch=self._dispatch,
                metrics=self.metrics,
                num_workers=self.config.num_workers,
                retry_policy=retry_policy,
                runner=self._runner,
                stop_event=self._stop,
                deadline_error=DeadlineExceededError,
                hook_factory=lambda: StageEventRecorder(self.metrics),
            )
            self._batcher = MicroBatcher(
                inbox=self._inbox,
                dispatch=self._dispatch,
                max_batch_size=self.config.max_batch_size,
                max_wait_s=self.config.max_wait_s,
                metrics=self.metrics,
                stop_event=self._stop,
            )
            self._pool.start()
            self._batcher.start()
            self._started = True
        return self

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the service.

        Args:
            drain: When True, wait for already-queued requests to finish
                before shutting the threads down; when False, fail all
                pending requests with :class:`ServiceStoppedError`.
            timeout: Longest to wait for the drain / thread joins.
        """
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        deadline = time.monotonic() + timeout
        if drain:
            while (
                not self._inbox.empty() or not self._dispatch.empty()
            ) and time.monotonic() < deadline:
                time.sleep(0.002)
        self._stop.set()
        assert self._batcher is not None and self._pool is not None
        self._batcher.join(timeout=max(0.0, deadline - time.monotonic()))
        self._pool.join(timeout=max(0.0, deadline - time.monotonic()))
        # Whatever is still queued can no longer run.
        for pending_queue in (self._inbox, self._dispatch):
            while True:
                try:
                    item = pending_queue.get_nowait()
                except queue.Empty:
                    break
                requests = item if isinstance(item, list) else [item]
                for request in requests:
                    request.handle._fail(
                        ServiceStoppedError("service stopped")
                    )
                    self.metrics.counter("requests.failed").inc()

    def install_signal_handlers(
        self, drain: bool = True, timeout: float = 10.0, resend: bool = True
    ):
        """Drain instead of abandoning queued requests on SIGTERM/SIGINT.

        Installs :func:`repro.serve.signals.install_graceful_shutdown`
        so a polite ``kill`` runs ``stop(drain=..., timeout=...)``
        before the process exits -- queued requests finish (drain) or
        are failed explicitly with :class:`ServiceStoppedError` rather
        than vanishing with the interpreter.  Returns the
        :class:`repro.serve.signals.GracefulShutdown` handle (no-op off
        the main thread; call ``restore()`` to uninstall).
        """
        from repro.serve.signals import install_graceful_shutdown

        return install_graceful_shutdown(
            lambda: self.stop(drain=drain, timeout=timeout), resend=resend
        )

    def __enter__(self) -> "IdentificationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        """Whether the service accepts traffic."""
        return self._started and not self._stopped

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def submit(
        self,
        session: CaptureSession,
        timeout: float | None = None,
        priority: int = 0,
    ) -> RequestHandle:
        """Enqueue one session for identification.

        Args:
            session: The capture session to identify.
            timeout: Service-side deadline in seconds (None = no
                deadline).  A request whose deadline
                passes while queued or mid-flight resolves with
                :class:`DeadlineExceededError`.  A non-positive timeout
                is rejected at admission (counted under
                ``deadline.expired_admission``) without queueing.
            priority: Shedding class; under pressure lower priorities
                are shed first (0 = normal, negative = best-effort,
                positive = protected).

        Returns:
            A :class:`RequestHandle` resolving to the predicted label.

        Raises:
            QueueFullError: The bounded queue is at capacity.
            OverloadError: The adaptive shedder refused this priority.
            ServiceStoppedError: The service is not running.
        """
        return self._enqueue(session, timeout, priority)

    def _enqueue(
        self,
        session: CaptureSession,
        timeout: float | None,
        priority: int,
        waited_s: float | None = None,
    ) -> RequestHandle:
        """:meth:`submit` for a request that already waited ``waited_s``
        upstream (a cluster worker's broker queue; None for a direct
        submit).  Its start time is back-dated by that wait, so its one
        ``queue_wait_ms`` sample and its latency include it; its
        deadline still runs from now.
        """
        if not self.is_running:
            raise ServiceStoppedError(
                "service is not running; use start() or a with-block"
            )
        now = time.monotonic()
        handle = RequestHandle()
        if timeout is not None and timeout <= 0:
            # Dead on arrival: account for it and resolve the handle
            # without ever burning queue space or worker time.  A
            # request relayed from upstream expired while queued there.
            if waited_s is None:
                drop, message = "admission", "expired before admission"
            else:
                self.metrics.histogram("queue_wait_ms").observe(
                    waited_s * 1000.0
                )
                drop, message = "dequeue", "passed while queued upstream"
            self.metrics.counter(f"deadline.expired_{drop}").inc()
            self.metrics.counter("requests.expired").inc()
            handle._fail(DeadlineExceededError(f"deadline {message}"))
            return handle
        if not self._shedder.admit(self._inbox.qsize(), priority):
            self.metrics.counter("requests.shed").inc()
            raise OverloadError(
                f"shed at priority {priority} "
                f"(pressure {self._shedder.pressure(self._inbox.qsize()):.2f})"
            )
        request = _Request(
            session=session,
            handle=handle,
            deadline=None if timeout is None else now + timeout,
            submitted_at=now - (waited_s or 0.0),
            priority=priority,
        )
        try:
            self._inbox.put_nowait(request)
        except queue.Full:
            self.metrics.counter("requests.rejected").inc()
            raise QueueFullError(
                f"request queue at capacity "
                f"({self.config.queue_capacity}); retry later"
            ) from None
        self.metrics.counter("requests.submitted").inc()
        self.metrics.gauge("queue_depth").set(self._inbox.qsize())
        return handle

    def submit_many(
        self,
        sessions: list[CaptureSession],
        timeout: float | None = None,
        priority: int = 0,
    ) -> list[RequestHandle]:
        """Submit several sessions; rejection aborts at the first full
        queue (earlier handles stay live)."""
        return [
            self.submit(session, timeout=timeout, priority=priority)
            for session in sessions
        ]

    def identify(
        self, session: CaptureSession, timeout: float | None = None
    ) -> str:
        """Synchronous convenience: submit and wait for the label."""
        return self.submit(session, timeout=timeout).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Service metrics plus the shared stage cache's hit rates.

        When the cache mounts a durable artifact store, its activity
        counters and on-disk footprint are included under
        ``artifact_store``.
        """
        snap = self.metrics.snapshot()
        snap["stage_cache"] = self.wimi.cache.snapshot()
        store = self.wimi.cache.disk_store
        if store is not None and hasattr(store, "counters"):
            snap["artifact_store"] = store.counters()
        return snap

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------

    @classmethod
    def from_registry(
        cls,
        registry,
        name: str = "wimi",
        version: str | None = None,
        config: ServiceConfig | None = None,
        runner=None,
        metrics: MetricsRegistry | None = None,
        config_overrides: dict | None = None,
    ) -> "IdentificationService":
        """A service warm-started from a model registry bundle.

        The restored pipeline mounts the artifact store recorded in its
        config (overridable via ``config_overrides``), so the first
        identify request of a fresh process is served from persisted
        artifacts with zero training or baseline-derivation stages.
        """
        wimi = WiMi.from_registry(
            registry, name=name, version=version,
            config_overrides=config_overrides,
        )
        return cls(wimi, config=config, runner=runner, metrics=metrics)
