"""Serve-layer streaming identification sessions.

:class:`StreamingGateway` is the online front of
:class:`repro.core.streaming.StreamingExtractor`: a caller opens a
:class:`StreamingSession`, submits CSI packets as they arrive off the
capture hardware, polls the converging Omega-bar estimate, and
finalizes for the classified label -- without ever materializing the
full trace client-side first.

Isolation follows the worker-pool pattern: every session runs on its
own ``wimi.clone_view()`` (private engine + hook list, shared stage
cache and classifier), so concurrent sessions never contend on engine
state while still sharing batch-stage artifacts.  A session's
finalized result is the batch ``extract`` and classify of its buffered
packets.  The gateway caps concurrent sessions (explicit rejection,
never silent queueing of an unbounded number of half-open streams) and
tracks the fleet in a :class:`repro.serve.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading

from repro.serve.metrics import MetricsRegistry
from repro.serve.service import ServeError, ServiceStoppedError


class StreamLimitError(ServeError):
    """Open rejected: the gateway is at its concurrent-stream capacity."""


class StreamClosedError(ServeError):
    """Packets submitted to a finalized or aborted stream."""


class StreamingSession:
    """One live packet-streaming identification session.

    Thread-safe: a capture thread may submit packets while another
    polls.  Obtained from :meth:`StreamingGateway.open`; the session is
    closed by exactly one of :meth:`finalize` or :meth:`abort`.
    """

    def __init__(self, stream_id: str, extractor, on_close):
        self.stream_id = stream_id
        self._extractor = extractor
        self._on_close = on_close
        self._lock = threading.Lock()
        self._closed = False
        self._result = None

    def _require_open(self) -> None:
        if self._closed:
            raise StreamClosedError(
                f"stream {self.stream_id} is closed; open a new session"
            )

    def submit_baseline(self, packets) -> None:
        """Feed baseline packets (a packet, a trace, or an iterable)."""
        with self._lock:
            self._require_open()
            self._extractor.push_baseline(packets)

    def submit_target(self, packets) -> None:
        """Feed target packets (a packet, a trace, or an iterable)."""
        with self._lock:
            self._require_open()
            self._extractor.push_target(packets)

    def poll(self):
        """Current :class:`~repro.core.streaming.StreamingEstimate`.

        Valid at any point in the session's life, including after
        finalize (returns the final estimate then).
        """
        with self._lock:
            if self._result is not None:
                return self._result.estimate
            return self._extractor.estimate()

    def finalize(self):
        """Close the stream and classify; idempotent.

        Returns the :class:`~repro.core.streaming.StreamingResult`.
        Runs the batch ``extract`` on the buffered packets, so it warns
        or raises exactly as ``identify`` would for the same data.
        """
        with self._lock:
            if self._result is not None:
                return self._result
            self._require_open()
            result = self._extractor.finalize()
            self._result = result
            self._closed = True
        self._on_close(self.stream_id, "finalized")
        return result

    def abort(self) -> None:
        """Discard the stream without classifying; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._on_close(self.stream_id, "aborted")


class StreamingGateway:
    """Bounded pool of concurrent streaming identification sessions.

    Args:
        wimi: A fitted pipeline; each session gets a private engine
            view over its shared stage cache.
        max_streams: Most sessions that may be open at once; further
            :meth:`open` calls raise :class:`StreamLimitError`.
        metrics: Registry to record into (a private one by default).
    """

    def __init__(self, wimi, max_streams: int = 8, metrics=None):
        if not wimi.is_fitted:
            raise ValueError(
                "StreamingGateway needs a fitted WiMi; call fit() first"
            )
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        self.wimi = wimi
        self.max_streams = max_streams
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._sessions: dict[str, StreamingSession] = {}
        self._next_id = 0
        self._draining = False
        for name in (
            "streams.opened", "streams.finalized",
            "streams.aborted", "streams.rejected",
            "streams.drained", "streams.drain_failed",
        ):
            self.metrics.counter(name)
        self.metrics.gauge("streams.active").set(0.0)

    @property
    def active(self) -> int:
        """Currently open sessions."""
        with self._lock:
            return len(self._sessions)

    def open(self, scene=None, material_name: str = "") -> StreamingSession:
        """Open a new streaming session.

        Raises:
            StreamLimitError: The gateway is at ``max_streams``.
        """
        with self._lock:
            if self._draining:
                self.metrics.counter("streams.rejected").inc()
                raise ServiceStoppedError(
                    "gateway is draining; no new streams accepted"
                )
            if len(self._sessions) >= self.max_streams:
                self.metrics.counter("streams.rejected").inc()
                raise StreamLimitError(
                    f"gateway at capacity ({self.max_streams} open "
                    f"streams); finalize or abort one first"
                )
            stream_id = f"stream-{self._next_id}"
            self._next_id += 1
            extractor = self.wimi.clone_view().streaming_extractor(
                scene=scene, material_name=material_name
            )
            session = StreamingSession(
                stream_id, extractor, on_close=self._close
            )
            self._sessions[stream_id] = session
            self.metrics.counter("streams.opened").inc()
            self.metrics.gauge("streams.active").set(
                float(len(self._sessions))
            )
        return session

    def _close(self, stream_id: str, outcome: str) -> None:
        with self._lock:
            self._sessions.pop(stream_id, None)
            self.metrics.counter(f"streams.{outcome}").inc()
            self.metrics.gauge("streams.active").set(
                float(len(self._sessions))
            )

    def drain(self) -> dict:
        """Close every open session: finalize, or abort on failure.

        Stops accepting new :meth:`open` calls (they raise
        :class:`repro.serve.ServiceStoppedError`), then walks the open
        sessions: each is finalized -- its buffered packets are worth a
        classification attempt -- and a session whose finalize raises
        (quality gate, poisoned capture) is aborted instead, so the
        drain always terminates and never leaves a half-open stream.
        Idempotent; safe against sessions closing concurrently.

        Returns ``{"finalized": n, "failed": n}``.
        """
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
        finalized = failed = 0
        for session in sessions:
            try:
                session.finalize()
                finalized += 1
                self.metrics.counter("streams.drained").inc()
            except StreamClosedError:
                # Lost the race with the owner's own close; fine.
                continue
            except Exception:  # noqa: BLE001 - drain must terminate
                session.abort()
                failed += 1
                self.metrics.counter("streams.drain_failed").inc()
        return {"finalized": finalized, "failed": failed}

    def install_signal_handlers(self, resend: bool = True):
        """Drain open streams instead of abandoning them on SIGTERM.

        Mirrors
        :meth:`repro.serve.IdentificationService.install_signal_handlers`:
        a polite ``kill`` finalizes (or cleanly aborts) every in-flight
        :class:`StreamingSession` before the process exits.  Returns
        the :class:`repro.serve.signals.GracefulShutdown` handle.
        """
        from repro.serve.signals import install_graceful_shutdown

        return install_graceful_shutdown(self.drain, resend=resend)

    def snapshot(self) -> dict:
        """Gateway metrics plus the shared stage cache's hit rates."""
        snap = self.metrics.snapshot()
        snap["stage_cache"] = self.wimi.cache.snapshot()
        return snap
