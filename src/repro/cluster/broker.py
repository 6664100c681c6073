"""Broker: enveloped requests over per-shard work queues.

The cluster never hands raw sessions between processes -- everything
crosses the process boundary as a small picklable message:

* :class:`Envelope` -- one identification request, routed to a shard.
  Deadlines are **wall-clock** (``time.time()``): monotonic clocks are
  not comparable across processes, so the submit path converts the
  caller's relative timeout once and every process compares against the
  same wall clock.
* :class:`Reply` -- the worker's resolution (label or a typed error).
  Exceptions do not cross the boundary as objects (a worker-side
  exception class may not unpickle in the parent); they travel as
  ``(error_type, error)`` strings and are re-raised by the client as
  :class:`repro.cluster.client.RemoteError` or a mapped service-level
  type.
* :class:`Heartbeat` -- liveness + a full metrics snapshot, so health
  checking and cross-process metrics aggregation ride one channel.
* :class:`Shutdown` -- the poison pill.  The request queues are FIFO,
  so a pill published after the last request *is* drain semantics: the
  worker finishes everything ahead of the pill, then exits.

:class:`LocalQueueBroker` is the transport, on ``multiprocessing``
queues: the parent publishes envelopes and consumes replies/heartbeats;
a worker obtains a picklable :class:`LocalQueueEndpoint` for its shard
and consumes/replies through it.  Every channel is **per-shard** --
request, reply and health queues alike.  Sharing any queue across workers would be fatal under SIGKILL:
a ``multiprocessing`` queue write holds a cross-process lock, and a
worker killed between writing its bytes and releasing that lock leaves
the lock held forever, deadlocking every other writer (on a one-core
host the reader typically wakes *before* the writer's feeder thread
gets rescheduled to release, so the window is wide, not exotic).  With
queue-per-worker channels a dead worker can only jam its own queues,
and :meth:`LocalQueueBroker.reset_shard` replaces them wholesale before
the replacement process spawns.  Delivery is at-least-once -- the
client redelivers on worker death and deduplicates replies -- so the
transport needs no exactly-once machinery.

:class:`ShardRing` is the router: consistent hashing (virtual nodes on
a blake2b ring) from a session's content fingerprint to a shard, so a
re-measured session always lands on the worker whose caches already
hold its artifacts, and removing a failed shard only remaps the keys
that lived on it.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue as queue_module
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------


@dataclass
class Envelope:
    """One enqueued identification request.

    Attributes:
        request_id: Cluster-unique id; replies echo it.
        session: The :class:`repro.csi.collector.CaptureSession`.
        shard: Shard the router assigned (sticky across redeliveries so
            the owning worker's caches stay hot).
        deadline_ts: Absolute wall-clock deadline (None = no deadline).
        attempts: Deliveries so far (0 on first publish); bumped on
            every redelivery after a worker crash.
        submitted_ts: Wall-clock submit time (worker-side queue-wait
            accounting; the parent keeps its own monotonic clock for
            latency).
        priority: Load-shedding class (0 = normal, negative =
            best-effort, positive = protected); workers shed low
            priorities first under pressure.
        hedged: Whether this delivery is a speculative (hedged) copy
            published to a sibling shard while the original is still in
            flight; informational -- dedup is by request_id.
    """

    request_id: str
    session: object
    shard: int
    deadline_ts: float | None = None
    attempts: int = 0
    submitted_ts: float = field(default_factory=time.time)
    priority: int = 0
    hedged: bool = False

    def expired(self, now: float | None = None) -> bool:
        """Whether the wall-clock deadline has passed."""
        if self.deadline_ts is None:
            return False
        return (time.time() if now is None else now) > self.deadline_ts

    def redelivered(self) -> "Envelope":
        """A copy with the delivery attempt counter bumped."""
        return replace(self, attempts=self.attempts + 1)

    def hedged_to(self, shard: int) -> "Envelope":
        """A speculative copy routed to a sibling shard.

        Attempts are *not* bumped: a hedge is not a failure redelivery,
        so it must not eat into the crash-redelivery budget.
        """
        return replace(self, shard=shard, hedged=True)


@dataclass
class Reply:
    """A worker's resolution of one envelope."""

    request_id: str
    label: str | None = None
    error_type: str | None = None
    error: str | None = None
    worker: str = ""
    shard: int = -1
    attempts: int = 1
    batch_size: int = 1

    @property
    def ok(self) -> bool:
        """Whether the request succeeded."""
        return self.error_type is None


@dataclass
class Heartbeat:
    """Periodic worker liveness + metrics beacon."""

    worker: str
    shard: int
    pid: int
    seq: int
    state: str  # "serving" | "draining"
    sent_ts: float = field(default_factory=time.time)
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Shutdown:
    """Poison pill; FIFO ordering behind real work makes it a drain."""

    drain: bool = True


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------


class LocalQueueEndpoint:
    """``multiprocessing``-queue endpoint; travels to the worker via
    the spawn pickling of ``Process`` arguments."""

    def __init__(self, shard, requests, replies, health):
        self.shard = shard
        self._requests = requests
        self._replies = replies
        self._health = health

    def consume(self, timeout: float) -> Envelope | Shutdown | None:
        """Next message for this shard, or None after ``timeout``."""
        try:
            return self._requests.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def send_reply(self, reply: Reply) -> None:
        """Publish a resolution back to the parent."""
        self._replies.put(reply)

    def send_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Publish a liveness beacon (droppable, never blocks long)."""
        try:
            self._health.put_nowait(heartbeat)
        except queue_module.Full:  # pragma: no cover - bounded overflow
            pass  # liveness is periodic; dropping one beat is harmless


class LocalQueueBroker:
    """Single-host backend over ``multiprocessing`` spawn-context queues.

    Every shard owns a private request, reply and health queue
    (queue-per-consumer AND queue-per-producer).  Nothing is shared
    between workers: a SIGKILLed worker can die holding its reply
    queue's writer lock, and if that queue were shared the survivors'
    feeder threads would block on it forever -- the parent would see
    the queue's item semaphore grow while its pipe end stays silent.
    Private channels confine the damage to queues that
    :meth:`reset_shard` throws away before the replacement worker
    spawns.

    Request queues are unbounded -- backpressure is enforced at the
    client by the in-flight cap, so supervision (redelivery after a
    crash) can always re-publish without risking a deadlock against a
    full pipe.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self._ctx = multiprocessing.get_context("spawn")
        self.num_shards = num_shards
        self._requests = [self._ctx.Queue() for _ in range(num_shards)]
        self._replies = [self._ctx.Queue() for _ in range(num_shards)]
        self._health = [
            self._ctx.Queue(maxsize=1024) for _ in range(num_shards)
        ]
        # Queues discarded by reset_shard.  They are not closed until
        # close(): the reply/monitor threads may still hold a snapshot
        # of the old channel list for one poll interval, and a closed
        # queue raises where an idle one just stays silent.
        self._retired: list = []

    @property
    def context(self):
        """The spawn context workers must be started from."""
        return self._ctx

    def publish(self, envelope: Envelope) -> None:
        """Enqueue an envelope onto its shard's request channel."""
        self._requests[envelope.shard].put(envelope)

    def publish_shutdown(self, shard: int, drain: bool = True) -> None:
        """Send the poison pill to one shard."""
        self._requests[shard].put(Shutdown(drain=drain))

    def next_reply(self, timeout: float) -> Reply | None:
        """Next reply from any worker, or None after ``timeout``."""
        return self._next(self._replies, timeout)

    def next_heartbeat(self, timeout: float) -> Heartbeat | None:
        """Next heartbeat from any worker, or None after ``timeout``."""
        return self._next(self._health, timeout)

    def _next(self, queues, timeout: float):
        """Pop from any of ``queues``, multiplexing with a single wait.

        ``queues`` is re-read as a fresh snapshot each iteration so a
        concurrent reset_shard takes effect within one poll interval.
        """
        deadline = time.monotonic() + timeout
        while True:
            for q in list(queues):
                try:
                    return q.get_nowait()
                except queue_module.Empty:
                    continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            # Block on the read ends of all channels at once; a ready
            # pipe loops back into the non-blocking sweep above.
            readers = [q._reader for q in list(queues)]
            mp_connection.wait(readers, timeout=min(remaining, 0.05))

    def endpoint(self, shard: int) -> LocalQueueEndpoint:
        """The picklable worker-side endpoint of one shard."""
        return LocalQueueEndpoint(
            shard,
            self._requests[shard],
            self._replies[shard],
            self._health[shard],
        )

    def reset_shard(self, shard: int) -> list[Envelope]:
        """Replace one shard's channels with fresh ones, returning the
        envelopes salvaged from the old request channel.

        Called before respawning a crashed worker: whatever state the
        dead consumer left behind (held locks, half-written frames) is
        abandoned with the old channels, and the replacement worker's
        endpoint binds to the new ones.
        """
        salvaged = []
        while True:
            try:
                message = self._requests[shard].get_nowait()
            except queue_module.Empty:
                break
            if isinstance(message, Envelope):
                salvaged.append(message)
        self._retired += [
            self._requests[shard], self._replies[shard], self._health[shard]
        ]
        self._requests[shard] = self._ctx.Queue()
        self._replies[shard] = self._ctx.Queue()
        self._health[shard] = self._ctx.Queue(maxsize=1024)
        return salvaged

    def close(self) -> None:
        """Release transport resources; queued data may be dropped."""
        for q in (*self._requests, *self._replies, *self._health,
                  *self._retired):
            q.close()
            # Do not block interpreter exit on unflushed feeder threads:
            # by close() time every consumer is gone.
            q.cancel_join_thread()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def _ring_hash(key: str) -> int:
    """Stable 64-bit position on the ring (process-independent)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


#: Pseudo-random points each shard owns on the ring.
VNODES = 64


class ShardRing:
    """Consistent-hash router from content keys to shards.

    Each shard owns :data:`VNODES` pseudo-random points on a 64-bit ring; a
    key routes to the first point clockwise from its own hash.  Virtual
    nodes keep the load split close to uniform, and :meth:`remove` (a
    failed shard whose restart budget is exhausted) only remaps the
    keys that lived on the removed shard's points -- every other
    session keeps hitting the worker whose caches already know it.
    """

    def __init__(self, shards):
        self._points: list[tuple[int, int]] = []
        self._shards: set[int] = set()
        for shard in shards:
            self.add(shard)
        if not self._shards:
            raise ValueError("need at least one shard")

    def add(self, shard: int) -> None:
        """Add a shard's virtual nodes to the ring."""
        if shard in self._shards:
            return
        self._shards.add(shard)
        for vnode in range(VNODES):
            self._points.append((_ring_hash(f"shard-{shard}:{vnode}"), shard))
        self._points.sort()

    def remove(self, shard: int) -> None:
        """Take a shard off the ring (its keys spill to the survivors)."""
        if shard not in self._shards:
            return
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(shard)
        self._points = [p for p in self._points if p[1] != shard]

    @property
    def shards(self) -> list[int]:
        """Live shards, sorted."""
        return sorted(self._shards)

    def route(self, key: str) -> int:
        """The shard owning ``key``."""
        position = _ring_hash(key)
        index = bisect_right(self._points, (position, -1))
        if index == len(self._points):
            index = 0
        return self._points[index][1]
