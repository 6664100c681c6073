"""Cluster worker process: one serving core behind a thin broker adapter.

``worker_main`` is the spawn entry point (module-level, so it and its
arguments pickle across the process boundary).  Serving -- micro-
batching, dequeue expiry, the batch deadline scope, batch-to-single
fallback -- is one :class:`repro.serve.IdentificationService` per
worker (one thread, ``retry_budget=0``: the orchestrator owns
redelivery).  The adapter owns only what exists per process:

1. **Boot.**  :meth:`repro.core.pipeline.WiMi.from_registry` with
   ``artifact_store_path`` overridden to this worker's own shard, so
   workers never share a disk tier and a restarted worker finds its
   shard's artifacts warm.  A boot failure is reported as a
   ``"failed"`` heartbeat before a non-zero exit, so the orchestrator
   tells "cannot boot" (give the shard up) from "crashed" (restart).
2. **Consume.**  Each :class:`repro.cluster.broker.Envelope` becomes a
   service request: its wall-clock deadline a timeout, its wall-clock
   age (clamped at zero, counted in ``clock.skew_clamped``) back-dated
   into the request's start, so its one ``queue_wait_ms`` sample
   includes broker transit, and an envelope already expired resolves
   as a dequeue expiry.  At most ``max_batch_size`` admitted requests
   are unanswered at a time; the backlog stays in the broker, so a
   crash strands one micro-batch and the orchestrator salvages the
   rest as never picked up.
3. **Reply.**  A done-callback on the request's handle sends the
   :class:`repro.cluster.broker.Reply` -- a label, or the error's type
   name and message, so isolated failures, stage expiry and
   ``QueueFullError``/``OverloadError`` cross the process typed.  The
   service's ``runner`` hook applies ``throttle_s`` (on every engine
   call, isolated re-runs included) and records ``handle_ms`` per
   request.
4. **Report.**  A daemon thread sends a :class:`Heartbeat` with a
   :class:`repro.serve.MetricsRegistry` snapshot every interval, for
   health checking and cross-process metrics aggregation.
5. **Exit.**  A :class:`repro.cluster.broker.Shutdown` pill (FIFO behind
   all published work) or a SIGTERM/SIGINT drain (via
   :func:`repro.serve.signals.install_graceful_shutdown`: consume until
   the queue is empty) ends the loop; every admitted request is
   answered before the service stops.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass

from repro.cluster.broker import (
    BrokerEndpoint,
    Envelope,
    Heartbeat,
    Reply,
    Shutdown,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.service import (
    IdentificationService,
    RequestHandle,
    ServeError,
    ServiceConfig,
)

#: How often the consume loop re-checks for work / drain (seconds).
_IDLE_POLL_S = 0.02


@dataclass(frozen=True)
class WorkerBoot:
    """Everything a worker process needs to boot (picklable).

    Attributes:
        registry_path: Model registry root (shared, read-only).
        model_name: Registry model name.
        version: Registry version (None = CURRENT).
        artifact_store_path: This worker's artifact-store shard; None
            keeps whatever the restored bundle config says.
        max_batch_size: Micro-batch limit (mirrors the service knob).
        max_wait_s: Longest to hold an incomplete batch open.
        queue_capacity: The worker service's request-queue depth (the
            cluster's ``queue_capacity``).
        heartbeat_interval_s: Beacon period.
        throttle_s: Artificial per-request service time (benchmark /
            chaos-test hook; 0 in production).
    """

    registry_path: str
    model_name: str = "wimi"
    version: str | None = None
    artifact_store_path: str | None = None
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    queue_capacity: int = 256
    heartbeat_interval_s: float = 0.1
    throttle_s: float = 0.0


class _WorkerRuntime:
    """The broker adapter of a worker process (testable in-process)."""

    def __init__(
        self,
        worker_id: str,
        shard: int,
        boot: WorkerBoot,
        endpoint: BrokerEndpoint,
        wimi,
    ):
        self.worker_id = worker_id
        self.shard = shard
        self.boot = boot
        self.endpoint = endpoint
        self.wimi = wimi
        self.metrics = MetricsRegistry()
        for name in ("requests.redelivered", "clock.skew_clamped"):
            self.metrics.counter(name)
        self.draining = threading.Event()
        self.service = IdentificationService(
            wimi,
            ServiceConfig(
                queue_capacity=boot.queue_capacity,
                max_batch_size=boot.max_batch_size,
                max_wait_s=boot.max_wait_s,
                num_workers=1,
                # The orchestrator owns redelivery; a worker never retries.
                retry_budget=0,
            ),
            runner=self._run,
            metrics=self.metrics,
        )
        self._beat_seq = 0
        self._unreplied = 0
        self._replied = threading.Condition()

    # ------------------------------------------------------------------

    def beat(self, state: str) -> None:
        """Send one heartbeat carrying the current metrics snapshot.

        The snapshot is *source-stamped* with ``(worker_id, seq)`` --
        the worker id already encodes the incarnation epoch
        (``worker-0.1``, ``worker-0.2``, ...) -- so the orchestrator's
        :meth:`MetricsRegistry.merge` can keep the latest snapshot per
        incarnation and drop re-sent beats instead of double-counting.
        Artifact-store counters are mirrored as gauges first so
        quarantine/heal activity is visible in merged snapshots.
        """
        self._beat_seq += 1
        self._mirror_store_gauges()
        self.endpoint.send_heartbeat(
            Heartbeat(
                worker=self.worker_id,
                shard=self.shard,
                pid=os.getpid(),
                seq=self._beat_seq,
                state=state,
                metrics=self.metrics.snapshot(
                    source=self.worker_id, seq=self._beat_seq
                ),
            )
        )

    def _mirror_store_gauges(self) -> None:
        store = getattr(self.wimi.cache, "disk_store", None)
        if store is None:
            return
        counters = store.counters()
        for name in ("quarantined", "healed", "corrupt"):
            self.metrics.gauge(f"store.{name}").set(
                float(counters.get(name, 0))
            )

    def serve_forever(self) -> None:
        """Consume until a pill arrives or a signalled drain finishes,
        then answer every admitted request before stopping the service."""
        self.service.start()
        try:
            while True:
                with self._replied:
                    # Admit at most one micro-batch ahead of its replies:
                    # the backlog stays in the broker, where a crash's
                    # reset_shard salvages it as never picked up.
                    self._replied.wait_for(
                        lambda: self._unreplied < self.boot.max_batch_size
                    )
                message = self.endpoint.consume(timeout=_IDLE_POLL_S)
                if isinstance(message, Shutdown):
                    break
                if message is not None:
                    self._admit(message)
                elif self.draining.is_set():
                    # Empty queue while draining: the drain is complete.
                    break
            with self._replied:
                self._replied.wait_for(lambda: self._unreplied == 0)
        finally:
            self.service.stop()

    # ------------------------------------------------------------------

    def _admit(self, envelope: Envelope) -> None:
        """Hand one envelope to the service; its reply is sent on done."""
        if envelope.attempts > 0:
            self.metrics.counter("requests.redelivered").inc()
        # Clock discipline: envelope timestamps (submitted_ts,
        # deadline_ts) are wall-clock by the broker contract -- monotonic
        # clocks are not comparable across processes -- so they are the
        # only comparisons allowed to touch time.time().  Once admitted,
        # the service measures everything on time.monotonic().
        wall_now = time.time()
        waited_s = wall_now - envelope.submitted_ts
        if waited_s < 0.0:
            # Cross-host clock skew (or a step between submit and
            # consume): count it so skew is diagnosable from the
            # orchestrator's merged snapshot instead of invisible.
            self.metrics.counter("clock.skew_clamped").inc()
            waited_s = 0.0
        timeout = (
            None if envelope.deadline_ts is None
            else envelope.deadline_ts - wall_now
        )
        try:
            # An envelope that expired in the broker queue resolves at
            # once, as a dequeue expiry; its reply goes out on done.
            handle = self.service._enqueue(
                envelope.session, timeout, envelope.priority,
                waited_s=waited_s,
            )
        except ServeError as error:
            # QueueFullError / OverloadError: typed and retryable.
            self._send(envelope, error=error)
            return
        with self._replied:
            self._unreplied += 1
        handle._add_done_callback(lambda done: self._reply(envelope, done))

    def _reply(self, envelope: Envelope, handle: RequestHandle) -> None:
        try:
            error = handle.exception()
            self._send(
                envelope,
                label=None if error is not None else handle.result(),
                error=error,
                batch_size=handle.batch_size or 1,
            )
        finally:
            with self._replied:
                self._unreplied -= 1
                self._replied.notify_all()

    def _send(
        self,
        envelope: Envelope,
        label: str | None = None,
        error: BaseException | None = None,
        batch_size: int = 1,
    ) -> None:
        self.endpoint.send_reply(
            Reply(
                request_id=envelope.request_id,
                label=label,
                error_type=None if error is None else type(error).__name__,
                error=None if error is None else str(error),
                worker=self.worker_id,
                shard=self.shard,
                attempts=envelope.attempts + 1,
                batch_size=batch_size,
            )
        )

    def _run(self, view, sessions: list) -> list[str]:
        """The service's runner: throttle, then one engine batch call,
        with its time shared out as one ``handle_ms`` sample a request."""
        if self.boot.throttle_s > 0.0:
            time.sleep(self.boot.throttle_s * len(sessions))
        started = time.monotonic()
        labels = view.identify_batch(sessions)
        handle_ms = (time.monotonic() - started) * 1000.0 / len(sessions)
        histogram = self.metrics.histogram("handle_ms")
        for _ in sessions:
            histogram.observe(handle_ms)
        return labels


def worker_main(
    worker_id: str,
    shard: int,
    boot: WorkerBoot,
    endpoint: BrokerEndpoint,
) -> None:
    """Spawn entry point of one cluster worker process."""
    from repro.core.pipeline import WiMi
    from repro.serve.signals import install_graceful_shutdown

    try:
        overrides = (
            {"artifact_store_path": boot.artifact_store_path}
            if boot.artifact_store_path is not None
            else None
        )
        wimi = WiMi.from_registry(
            boot.registry_path,
            name=boot.model_name,
            version=boot.version,
            config_overrides=overrides,
        )
        runtime = _WorkerRuntime(worker_id, shard, boot, endpoint, wimi)
    except Exception as error:  # noqa: BLE001 - boot failure boundary
        endpoint.send_heartbeat(
            Heartbeat(
                worker=worker_id,
                shard=shard,
                pid=os.getpid(),
                seq=0,
                state="failed",
                metrics={
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(limit=5),
                },
            )
        )
        raise SystemExit(1)

    # SIGTERM/SIGINT flip the worker into drain mode: keep serving
    # until the shard queue is empty, then exit -- never abandon
    # queued requests.  Same hook the in-process service installs.
    install_graceful_shutdown(runtime.draining.set, resend=False)

    runtime.beat("serving")
    stop_beats = threading.Event()

    def heartbeat_loop() -> None:
        while not stop_beats.wait(boot.heartbeat_interval_s):
            state = "draining" if runtime.draining.is_set() else "serving"
            try:
                runtime.beat(state)
            except Exception:  # pragma: no cover - torn-down queue
                return

    beater = threading.Thread(
        target=heartbeat_loop, name=f"{worker_id}-heartbeat", daemon=True
    )
    beater.start()
    try:
        runtime.serve_forever()
    finally:
        stop_beats.set()
        try:
            # Final beat so the parent's last metrics snapshot includes
            # everything this worker served.
            runtime.beat("draining")
        except Exception:  # pragma: no cover - torn-down queue
            pass
