"""ClusterClient: the cluster's front door -- spawn, route, supervise,
restart, aggregate.

Application code written against
:class:`repro.serve.IdentificationService` -- ``submit() ->
RequestHandle``, ``identify()``, context-manager lifecycle,
``snapshot()`` -- works against a cluster by swapping the constructor:

    with ClusterClient(registry_path, config=ClusterConfig(3)) as client:
        handle = client.submit(session, timeout=1.0)
        label = handle.result()

The :class:`ClusterClient` owns the whole process topology:

* **Spawn.**  One worker process per shard, started from the broker's
  ``spawn`` context, each warm-booting
  :meth:`repro.core.pipeline.WiMi.from_registry` against its own
  artifact-store shard (``<store_root>/shard-<n>``).
* **Route.**  ``submit()`` consistent-hashes the session's content
  fingerprint onto the :class:`repro.cluster.broker.ShardRing`, so a
  re-measured session always reaches the worker whose memory/disk
  caches already hold its artifacts.  Backpressure is explicit: more
  than ``queue_capacity`` unresolved requests raises
  :class:`repro.serve.QueueFullError`, mirroring the in-process
  service's front door.
* **Supervise.**  Workers stream :class:`Heartbeat` beacons; a monitor
  thread restarts any worker whose process died or whose beacons went
  stale.  Requests that were in flight on the dead worker are
  *redelivered* to its replacement (bounded by ``MAX_REDELIVERIES``;
  identification is deterministic and side-effect-free, so
  at-least-once delivery plus first-reply-wins deduplication is
  exact).  A shard that exhausts :data:`MAX_RESTARTS` is removed from the
  ring -- its keys spill to the survivors (graceful degradation) --
  and the cluster only stops accepting work when no shard remains.
* **Aggregate.**  Each heartbeat carries a full
  :class:`repro.serve.MetricsRegistry` snapshot;
  :meth:`ClusterClient.snapshot` folds the latest per-worker snapshots
  through :meth:`repro.serve.MetricsRegistry.merge` next to the
  client's own cluster-level counters.

Request resolution reuses :class:`repro.serve.RequestHandle`, so
callers wait on cluster futures exactly like service futures.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.broker import (
    Envelope,
    LocalQueueBroker,
    Reply,
    ShardRing,
)
from repro.cluster.worker import HEARTBEAT_TIMEOUT_S, WorkerBoot, worker_main
from repro.engine.artifacts import session_fingerprint
from repro.resilience import Backoff, CircuitBreaker, LoadShedder
from repro.serve.metrics import MetricsRegistry
from repro.serve.service import (
    DeadlineExceededError,
    OverloadError,
    QueueFullError,
    RequestHandle,
    ServeError,
    ServiceStoppedError,
)

#: Supervision loop tick (seconds).
_MONITOR_POLL_S = 0.02
#: Redeliveries per request before it fails (the poison cap): a request
#: in flight through more worker crashes than this is failed typed
#: instead of crash-looping its shard.
MAX_REDELIVERIES = 2
#: Adaptive hedging (``hedge_after_s=None``): once this many requests
#: have completed, hedge at this factor times the observed p95 latency.
HEDGE_MIN_OBSERVATIONS = 20
HEDGE_LATENCY_FACTOR = 3.0
#: Restarts per shard before it is abandoned.
MAX_RESTARTS = 3
#: Longest :meth:`ClusterClient.start` waits for every worker's first
#: heartbeat (seconds).
BOOT_TIMEOUT_S = 60.0
#: First-redelivery backoff ceiling (seconds): redeliveries are deferred
#: by a full-jittered exponential delay (per envelope attempt) so a
#: crashing shard's backlog cannot re-land on its replacement in one
#: synchronized wave.
REDELIVERY_BACKOFF_BASE_S = 0.05
#: Cap on any single redelivery delay (seconds).
REDELIVERY_BACKOFF_MAX_S = 1.0


class ClusterError(ServeError):
    """Cluster-level failure (boot, supervision, shard exhaustion)."""


class RemoteError(ServeError):
    """A worker-side failure relayed across the process boundary.

    Attributes:
        error_type: Exception class name raised in the worker.
        worker: Id of the worker that failed the request.
    """

    def __init__(self, message: str, error_type: str = "", worker: str = ""):
        super().__init__(message)
        self.error_type = error_type
        self.worker = worker


@dataclass(frozen=True)
class ClusterConfig:
    """Tuning knobs of the serving cluster.

    Attributes:
        num_workers: Worker processes (= shards; the feature/artifact
            space is partitioned across them).
        queue_capacity: Cluster-wide unresolved-request cap; beyond it
            ``submit`` raises :class:`repro.serve.QueueFullError`.
            Each worker's service queue gets the same depth.
        max_batch_size: Worker-side micro-batch limit.
        throttle_s: Artificial per-request worker service time
            (benchmark / chaos-test hook; 0 in production).
        hedge_after_s: Age at which an unresolved request is hedged
            (speculatively re-published to a sibling shard; first reply
            wins).  ``None`` adapts the threshold to
            ``HEDGE_LATENCY_FACTOR`` x the observed p95 latency once
            ``HEDGE_MIN_OBSERVATIONS`` requests have completed.
    """

    num_workers: int = 2
    queue_capacity: int = 256
    max_batch_size: int = 8
    throttle_s: float = 0.0
    hedge_after_s: float | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError(
                f"hedge_after_s must be > 0 or None, got {self.hedge_after_s}"
            )


class _Pending:
    """Parent-side bookkeeping of one unresolved request."""

    __slots__ = ("envelope", "handle", "submitted_mono", "hedged")

    def __init__(self, envelope: Envelope, handle: RequestHandle):
        self.envelope = envelope
        self.handle = handle
        self.submitted_mono = time.monotonic()
        self.hedged = False


class _WorkerSlot:
    """One shard's process + supervision state."""

    def __init__(self, shard: int):
        self.shard = shard
        self.process = None
        self.worker_id = ""
        self.last_beat_mono: float | None = None
        self.ready = False
        self.restarts = 0
        self.failed = False
        self.boot_error: str | None = None
        #: Latest metrics beat per worker incarnation.  Keeping dead
        #: incarnations' final beats means a restart does not erase the
        #: work that incarnation served; the source-stamped snapshots
        #: dedup (not double-count) in ``MetricsRegistry.merge``.
        self.metrics_by_worker: dict[str, dict] = {}

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterClient:
    """Supervised multi-process sharded serving over one registry.

    Args:
        registry_path: Model registry root every worker boots from.
        config: Cluster tuning; defaults suit tests.
        model_name: Registry model name (default ``"wimi"``).
        version: Registry version (default CURRENT).
        store_root: Root under which per-worker artifact-store shards
            live (``<store_root>/shard-<n>``); None leaves each
            worker on whatever the restored bundle config says.
    """

    def __init__(
        self,
        registry_path: str | os.PathLike,
        config: ClusterConfig | None = None,
        model_name: str = "wimi",
        version: str | None = None,
        store_root: str | os.PathLike | None = None,
    ):
        self.config = config if config is not None else ClusterConfig()
        self.registry_path = str(registry_path)
        self.model_name = model_name
        self.version = version
        self.store_root = None if store_root is None else str(store_root)
        self.broker = LocalQueueBroker(self.config.num_workers)
        self.metrics = MetricsRegistry()
        for name in (
            "requests.submitted", "requests.completed", "requests.failed",
            "requests.rejected", "requests.expired", "requests.shed",
            "deadline.expired_admission",
            "cluster.restarts", "cluster.redeliveries",
            "cluster.duplicate_replies", "cluster.shards_failed",
            "cluster.hedges",
            "breaker.opened", "breaker.closed", "breaker.diverted",
        ):
            self.metrics.counter(name)
        self._latency_hist = self.metrics.histogram("latency_ms")

        self._slots = {
            shard: _WorkerSlot(shard)
            for shard in range(self.config.num_workers)
        }
        self._ring = ShardRing(self._slots)
        self._pending: dict[str, _Pending] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spawned = itertools.count(0)
        self._stop = threading.Event()
        self._started = False
        self._stopped = False
        self._threads: list[threading.Thread] = []
        self._shedder = LoadShedder(self.config.queue_capacity)
        self._redelivery_backoff = Backoff(
            base_s=REDELIVERY_BACKOFF_BASE_S, max_s=REDELIVERY_BACKOFF_MAX_S
        )
        #: Redeliveries waiting out their backoff: (due_mono, envelope),
        #: published by the monitor loop once due.
        self._deferred: list[tuple[float, Envelope]] = []
        self._breakers = {
            shard: CircuitBreaker(on_transition=self._breaker_transition)
            for shard in self._slots
        }

    def _breaker_transition(self, old_state: str, new_state: str) -> None:
        if new_state == "open":
            self.metrics.counter("breaker.opened").inc()
        elif new_state == "closed":
            self.metrics.counter("breaker.closed").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, wait_ready: bool = True) -> "ClusterClient":
        """Spawn the workers and the supervision threads (idempotent).

        With ``wait_ready`` (default) blocks until every shard's worker
        sent its first heartbeat, raising :class:`ClusterError` if any
        shard cannot boot within :data:`BOOT_TIMEOUT_S`.
        """
        with self._lock:
            if self._started:
                return self
            if self._stopped:
                raise ServiceStoppedError("cluster cannot be restarted")
            self._started = True
        for slot in self._slots.values():
            self._spawn(slot)
        for target, name in (
            (self._reply_loop, "repro-cluster-replies"),
            (self._monitor_loop, "repro-cluster-monitor"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if wait_ready:
            self.wait_ready(BOOT_TIMEOUT_S)
        return self

    def wait_ready(self, timeout: float) -> None:
        """Block until every live shard has heartbeated once."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                slots = list(self._slots.values())
            live = [s for s in slots if not s.failed]
            if not live:
                errors = "; ".join(
                    f"shard {s.shard}: {s.boot_error or 'unknown'}"
                    for s in slots
                )
                raise ClusterError(f"no shard could boot ({errors})")
            if all(s.ready for s in live):
                return
            time.sleep(_MONITOR_POLL_S)
        raise ClusterError(
            f"workers not ready within {timeout:.1f}s "
            f"(ready: {[s.shard for s in self._slots.values() if s.ready]})"
        )

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the cluster.

        With ``drain`` (default) waits for unresolved requests to
        finish before sending the poison pills; without it, pending
        requests fail with :class:`repro.serve.ServiceStoppedError`.
        """
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
        deadline = time.monotonic() + timeout
        if drain:
            while self._pending and time.monotonic() < deadline:
                time.sleep(_MONITOR_POLL_S)
        self._stop.set()
        for slot in self._slots.values():
            if slot.alive:
                self.broker.publish_shutdown(slot.shard, drain=drain)
        for slot in self._slots.values():
            if slot.process is not None:
                slot.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)
        # Catch the workers' final beats so snapshot() stays accurate
        # after shutdown.
        self._drain_heartbeats()
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for pending in leftovers:
            pending.handle._fail(ServiceStoppedError("cluster stopped"))
            self.metrics.counter("requests.failed").inc()
        self.broker.close()

    def install_signal_handlers(
        self, drain: bool = True, timeout: float = 30.0, resend: bool = True
    ):
        """SIGTERM/SIGINT -> graceful ``stop()`` (same hook the
        in-process service exposes)."""
        from repro.serve.signals import install_graceful_shutdown

        return install_graceful_shutdown(
            lambda: self.stop(drain=drain, timeout=timeout), resend=resend
        )

    def __enter__(self) -> "ClusterClient":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        """Whether the cluster accepts traffic."""
        return (
            self._started
            and not self._stopped
            and any(not s.failed for s in self._slots.values())
        )

    # ------------------------------------------------------------------
    # Spawning / supervision
    # ------------------------------------------------------------------

    def _boot_for(self, slot: _WorkerSlot) -> WorkerBoot:
        store_path = None
        if self.store_root is not None:
            store_path = str(Path(self.store_root) / f"shard-{slot.shard}")
        return WorkerBoot(
            registry_path=self.registry_path,
            model_name=self.model_name,
            version=self.version,
            artifact_store_path=store_path,
            max_batch_size=self.config.max_batch_size,
            queue_capacity=self.config.queue_capacity,
            throttle_s=self.config.throttle_s,
        )

    def _spawn(self, slot: _WorkerSlot) -> None:
        incarnation = next(self._spawned)
        slot.worker_id = f"worker-{slot.shard}.{incarnation}"
        slot.ready = False
        slot.last_beat_mono = None
        slot.process = self.broker.context.Process(
            target=worker_main,
            args=(
                slot.worker_id,
                slot.shard,
                self._boot_for(slot),
                self.broker.endpoint(slot.shard),
            ),
            name=f"repro-cluster-{slot.worker_id}",
            daemon=True,
        )
        slot.process.start()

    def _reply_loop(self) -> None:
        while not self._stop.is_set():
            reply = self.broker.next_reply(timeout=_MONITOR_POLL_S)
            if reply is not None:
                self._resolve(reply)

    def _resolve(self, reply: Reply) -> None:
        with self._lock:
            pending = self._pending.pop(reply.request_id, None)
        if pending is None:
            # A redelivered request answered twice (first reply won) or
            # a reply racing stop(): count it, drop it.
            self.metrics.counter("cluster.duplicate_replies").inc()
            return
        handle = pending.handle
        handle.attempts = reply.attempts
        handle.batch_size = reply.batch_size
        handle.latency_s = time.monotonic() - pending.submitted_mono
        self._latency_hist.observe(handle.latency_s * 1000.0)
        # Any reply -- even an error-typed one -- is evidence the shard's
        # worker is alive and serving; this is what closes a half-open
        # breaker after its trial request comes back.
        breaker = self._breakers.get(reply.shard)
        if breaker is not None:
            breaker.record_success()
        if reply.ok:
            self.metrics.counter("requests.completed").inc()
            handle._resolve(reply.label)
            return
        if reply.error_type == "DeadlineExceededError":
            self.metrics.counter("requests.expired").inc()
            error: BaseException = DeadlineExceededError(reply.error)
        elif reply.error_type in ("QueueFullError", "OverloadError"):
            # Worker-side overload must stay typed and retryable across
            # the process boundary so callers can tell it from poison.
            typed = (
                QueueFullError
                if reply.error_type == "QueueFullError"
                else OverloadError
            )
            error = typed(f"{reply.error} (worker {reply.worker})")
        else:
            error = RemoteError(
                f"{reply.error_type}: {reply.error} "
                f"(worker {reply.worker})",
                error_type=reply.error_type or "",
                worker=reply.worker,
            )
        self.metrics.counter("requests.failed").inc()
        handle._fail(error)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(_MONITOR_POLL_S):
            self._drain_heartbeats()
            self._flush_deferred()
            self._maybe_hedge()
            now = time.monotonic()
            for slot in list(self._slots.values()):
                if slot.failed or slot.process is None:
                    continue
                if not slot.alive:
                    self._recover(slot, "process exited")
                elif (
                    slot.ready
                    and slot.last_beat_mono is not None
                    and now - slot.last_beat_mono
                    > HEARTBEAT_TIMEOUT_S
                ):
                    self._recover(slot, "heartbeats went stale")

    def _drain_heartbeats(self) -> None:
        while True:
            beat = self.broker.next_heartbeat(timeout=0.0)
            if beat is None:
                return
            slot = self._slots.get(beat.shard)
            if slot is None or beat.worker != slot.worker_id:
                continue  # beacon from a previous incarnation
            if beat.state == "failed":
                slot.boot_error = str(beat.metrics.get("error", "boot failed"))
                continue  # liveness handled by process exit
            slot.last_beat_mono = time.monotonic()
            slot.ready = True
            slot.metrics_by_worker[beat.worker] = beat.metrics

    def _recover(self, slot: _WorkerSlot, reason: str) -> None:
        """Restart a dead/wedged worker and redeliver its requests."""
        if slot.process is not None and slot.process.is_alive():
            slot.process.kill()  # wedged: reclaim the shard queue
            slot.process.join(timeout=5.0)
        # A crash/stall is breaker evidence: enough consecutive ones
        # open the shard's circuit and divert new keys to neighbours.
        self._breakers[slot.shard].record_failure()
        # Fresh channels before the replacement spawns: the dead worker
        # may have died holding queue locks, so its channels are junk.
        salvaged = self.broker.reset_shard(slot.shard)
        if slot.restarts >= MAX_RESTARTS:
            self._abandon(slot, reason, salvaged)
            return
        slot.restarts += 1
        self.metrics.counter("cluster.restarts").inc()
        self._spawn(slot)
        self._redeliver(slot.shard, salvaged)

    def _redeliver(self, shard: int, salvaged: list[Envelope]) -> None:
        """Re-queue every unresolved envelope routed to ``shard``.

        Salvaged envelopes (still queued, never picked up) are
        re-published immediately -- they were never part of the crash,
        so replaying them cannot re-trigger it.  Envelopes that were in
        flight on the dead worker get their attempt counter bumped and
        are *deferred* by a full-jittered exponential backoff (keyed to
        the attempt) before the monitor loop re-publishes them: if one
        of them is the poison that killed the worker, an immediate
        synchronized replay would re-kill the replacement in a
        redelivery storm.  A request fails permanently once the
        redelivery budget is spent.  Duplicates are harmless:
        identification is deterministic and the reply collector keeps
        the first resolution.
        """
        salvaged_ids = {e.request_id for e in salvaged}
        with self._lock:
            in_flight = [
                p for p in self._pending.values()
                if p.envelope.shard == shard
                and p.envelope.request_id not in salvaged_ids
            ]
        for envelope in salvaged:
            self.broker.publish(envelope)
        now = time.monotonic()
        deferred = []
        for pending in in_flight:
            envelope = pending.envelope.redelivered()
            if envelope.attempts > MAX_REDELIVERIES:
                with self._lock:
                    self._pending.pop(envelope.request_id, None)
                self.metrics.counter("requests.failed").inc()
                pending.handle._fail(
                    RemoteError(
                        f"request {envelope.request_id} lost to "
                        f"{envelope.attempts} worker crashes",
                        error_type="RedeliveryExhausted",
                    )
                )
                continue
            pending.envelope = envelope
            self.metrics.counter("cluster.redeliveries").inc()
            delay = self._redelivery_backoff.delay(envelope.attempts - 1)
            deferred.append((now + delay, envelope))
        if deferred:
            with self._lock:
                self._deferred.extend(deferred)

    def _flush_deferred(self) -> None:
        """Publish deferred redeliveries whose backoff has elapsed."""
        now = time.monotonic()
        due = []
        with self._lock:
            if not self._deferred:
                return
            remaining = []
            for due_mono, envelope in self._deferred:
                if due_mono > now:
                    remaining.append((due_mono, envelope))
                elif envelope.request_id in self._pending:
                    due.append(envelope)
                # else: resolved while waiting out the backoff -- drop.
            self._deferred = remaining
        for envelope in due:
            self.broker.publish(envelope)

    def _hedge_threshold_s(self) -> float | None:
        """Age beyond which an in-flight request gets a hedged copy."""
        if self.config.hedge_after_s is not None:
            return self.config.hedge_after_s
        snap = self._latency_hist.snapshot()
        if snap["count"] < HEDGE_MIN_OBSERVATIONS:
            return None
        p95_s = snap["p95"] / 1000.0
        if p95_s <= 0:
            return None
        return p95_s * HEDGE_LATENCY_FACTOR

    def _maybe_hedge(self) -> None:
        """Speculatively re-publish the slowest in-flight requests.

        A request older than the hedge threshold gets one copy on a
        sibling shard; whichever worker answers first wins and the
        loser's reply is dropped by the dedup in :meth:`_resolve`.
        This converts a stuck/slow shard's tail latency into one extra
        (deterministic, side-effect-free) computation.  The copy goes to
        the next live shard in ring order; with one live shard there is
        nothing to hedge to.
        """
        threshold = self._hedge_threshold_s()
        if threshold is None:
            return
        now = time.monotonic()
        hedges = []
        with self._lock:
            for pending in self._pending.values():
                if pending.hedged or now - pending.submitted_mono < threshold:
                    continue
                siblings = self._ring_successors(pending.envelope.shard)
                if siblings:
                    pending.hedged = True
                    hedges.append(pending.envelope.hedged_to(siblings[0]))
        for envelope in hedges:
            self.metrics.counter("cluster.hedges").inc()
            self.broker.publish(envelope)

    def _ring_successors(self, shard: int) -> list[int]:
        """The live shards other than ``shard``, in ring order after it.
        Lock held by the caller."""
        live = sorted(
            other for other in self._ring.shards
            if not self._slots[other].failed and other != shard
        )
        return [s for s in live if s > shard] + [s for s in live if s < shard]

    def _abandon(
        self, slot: _WorkerSlot, reason: str, salvaged: list[Envelope]
    ) -> None:
        """Give a shard up after its restart budget; keys spill over."""
        slot.failed = True
        self.metrics.counter("cluster.shards_failed").inc()
        with self._lock:
            doomed = [
                p for p in self._pending.values()
                if p.envelope.shard == slot.shard
            ]
            survivors = len(self._ring.shards) > 1
            if survivors:
                self._ring.remove(slot.shard)
        for pending in doomed:
            with self._lock:
                self._pending.pop(pending.envelope.request_id, None)
            self.metrics.counter("requests.failed").inc()
            pending.handle._fail(
                ClusterError(
                    f"shard {slot.shard} abandoned after "
                    f"{slot.restarts} restart(s): {reason}"
                )
            )

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def submit(
        self,
        session,
        timeout: float | None = None,
        priority: int = 0,
    ) -> RequestHandle:
        """Enqueue one session; returns a :class:`RequestHandle`.

        Args:
            session: The capture session to identify.
            timeout: Deadline in seconds (None = no deadline); travels
                in the envelope as a wall-clock instant and is enforced
                at admission, worker dequeue and every pipeline stage
                boundary.  A non-positive timeout is rejected at
                admission without publishing.
            priority: Shedding class (0 = normal, negative =
                best-effort, positive = protected).

        Raises:
            QueueFullError: More than ``config.queue_capacity``
                requests are unresolved (explicit backpressure).
            OverloadError: The adaptive shedder refused this priority.
            ServiceStoppedError: The cluster is not running.
        """
        if not self.is_running:
            raise ServiceStoppedError(
                "cluster is not running; use start() or a with-block"
            )
        handle = RequestHandle()
        if timeout is not None and timeout <= 0:
            self.metrics.counter("deadline.expired_admission").inc()
            self.metrics.counter("requests.expired").inc()
            handle._fail(
                DeadlineExceededError("deadline expired before admission")
            )
            return handle
        with self._lock:
            if len(self._pending) >= self.config.queue_capacity:
                self.metrics.counter("requests.rejected").inc()
                raise QueueFullError(
                    f"{len(self._pending)} requests in flight "
                    f"(capacity {self.config.queue_capacity}); retry later"
                )
            if not self._shedder.admit(len(self._pending), priority):
                self.metrics.counter("requests.shed").inc()
                raise OverloadError(
                    f"shed at priority {priority} (pressure "
                    f"{self._shedder.pressure(len(self._pending)):.2f})"
                )
            shard = self._route(session_fingerprint(session))
            envelope = Envelope(
                request_id=f"r{os.getpid()}-{next(self._ids)}",
                session=session,
                shard=shard,
                deadline_ts=(
                    None if timeout is None else time.time() + timeout
                ),
                priority=priority,
            )
            self._pending[envelope.request_id] = _Pending(envelope, handle)
        self.metrics.counter("requests.submitted").inc()
        self.broker.publish(envelope)
        return handle

    def _route(self, key: str) -> int:
        """Ring-route ``key``, diverting around open circuit breakers.

        The consistent-hash primary wins whenever its breaker admits
        traffic (cache locality).  While the primary's circuit is open
        the key diverts to the next live shard in ring order whose
        breaker allows -- colder caches, but no waiting behind a shard
        that keeps crashing.  If every breaker refuses, the primary is
        used anyway (total refusal would just turn brownout into
        blackout).  Lock held by the caller.
        """
        primary = self._ring.route(key)
        if self._breakers[primary].allow():
            return primary
        for candidate in self._ring_successors(primary):
            if self._breakers[candidate].allow():
                self.metrics.counter("breaker.diverted").inc()
                return candidate
        return primary

    def submit_many(
        self,
        sessions: list,
        timeout: float | None = None,
        priority: int = 0,
    ) -> list[RequestHandle]:
        """Submit several sessions; aborts at the first full queue."""
        return [
            self.submit(session, timeout=timeout, priority=priority)
            for session in sessions
        ]

    def identify(self, session, timeout: float | None = None) -> str:
        """Synchronous convenience: submit and wait for the label."""
        return self.submit(session, timeout=timeout).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cluster counters + per-worker and merged worker metrics.

        Every worker *incarnation* ever heard from contributes (a
        restarted shard does not erase its predecessor's served work);
        :meth:`MetricsRegistry.merge` deduplicates stamped snapshots
        per (worker, epoch) so re-sent heartbeats never double-count.
        """
        with self._lock:
            slots = list(self._slots.values())
            pending = len(self._pending)
            deferred = len(self._deferred)
        worker_snaps: dict[str, dict] = {}
        for slot in slots:
            worker_snaps.update(slot.metrics_by_worker)
        return {
            "cluster": self.metrics.snapshot(),
            "pending": pending,
            "deferred": deferred,
            "breakers": {
                shard: breaker.snapshot()
                for shard, breaker in sorted(self._breakers.items())
            },
            "shards": {
                slot.shard: {
                    "worker": slot.worker_id,
                    "alive": slot.alive,
                    "ready": slot.ready,
                    "restarts": slot.restarts,
                    "failed": slot.failed,
                }
                for slot in slots
            },
            "workers": worker_snaps,
            "merged": MetricsRegistry.merge(
                snap for _, snap in sorted(worker_snaps.items())
            ),
        }
