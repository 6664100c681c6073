"""Per-dependency circuit breaker (closed -> open -> half-open).

The cluster client keeps one breaker per shard: consecutive worker
failures (crashes, stale heartbeats) trip the breaker open, new keys
divert to ring neighbors while it is open, and after a cool-down the
breaker admits trial traffic (half-open).  A successful reply closes
it; another failure re-opens it.

A restarted worker does *not* auto-close its breaker -- a process that
boots and immediately crashes again on a poison workload would flap
forever.  Only evidence of successful service (a reply) closes the
circuit, which is exactly what the half-open trial produces.

All transitions happen lazily inside the lock on ``allow()`` /
``record_*()``; there is no background timer.  The clock is injectable
for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive failures that trip the breaker.
FAILURE_THRESHOLD = 3
#: Cool-down (seconds) before half-open trials are allowed.
OPEN_DURATION_S = 5.0
#: Trial admissions granted per half-open episode before further
#: traffic is refused.
HALF_OPEN_TRIALS = 1


class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open recovery.

    It trips after :data:`FAILURE_THRESHOLD` consecutive failures and
    admits :data:`HALF_OPEN_TRIALS` trials once :data:`OPEN_DURATION_S`
    have passed.

    Args:
        clock: Monotonic time source (injectable for tests).
        on_transition: Optional ``callback(old_state, new_state)`` fired
            inside the lock on every state change -- keep it cheap
            (metrics increments).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trials_left = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def _transition(self, new_state: str) -> None:
        old = self._state
        if old == new_state:
            return
        self._state = new_state
        if self._on_transition is not None:
            self._on_transition(old, new_state)

    def _refresh(self) -> None:
        """Apply the timed open -> half-open transition (lock held)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= OPEN_DURATION_S
        ):
            self._trials_left = HALF_OPEN_TRIALS
            self._transition(HALF_OPEN)

    @property
    def state(self) -> str:
        with self._lock:
            self._refresh()
            return self._state

    # ------------------------------------------------------------------
    # Admission + evidence
    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """Whether new work may be routed to the guarded dependency.

        In half-open state each ``allow()`` consumes one trial slot, so
        a single straggler probe -- not a thundering herd -- tests the
        recovering dependency.
        """
        with self._lock:
            self._refresh()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._trials_left > 0:
                self._trials_left -= 1
                return True
            return False

    def record_success(self) -> None:
        """Evidence of successful service: closes the circuit."""
        with self._lock:
            self._refresh()
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """Evidence of failure: trips or re-trips the circuit."""
        with self._lock:
            self._refresh()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= FAILURE_THRESHOLD
            ):
                self._opened_at = self._clock()
                self._transition(OPEN)

    def snapshot(self) -> dict:
        """Point-in-time view for metrics/debug output."""
        with self._lock:
            self._refresh()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
            }
