"""End-to-end deadline propagation.

A :class:`Deadline` is an absolute expiry instant on an injectable
clock.  In-process code uses the monotonic clock; cross-process
envelopes carry wall-clock expiries (``time.time``) because monotonic
clocks are not comparable across processes -- the same discipline the
cluster layer already follows.

The active deadline travels via a :mod:`contextvars` scope rather than
as a parameter threaded through every pipeline signature: the engine's
stage resolver calls :func:`check_deadline` before *executing* a stage
(cached artifacts still flow -- serving a hit costs nothing), so a
request that expired while queued stops burning CPU at the next stage
boundary instead of running the whole graph to completion.

Drop points increment a ``deadline.expired_<point>`` counter so the
soak harness can prove each check fires: ``admission`` (rejected at
submit), ``dequeue`` (expired while queued), ``stage`` (expired between
pipeline stages), ``retry`` (expired between retry attempts).
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Callable, Iterator


class DeadlineExpiredError(Exception):
    """Raised at a deadline checkpoint once the budget is exhausted."""


class Deadline:
    """Absolute expiry instant on an explicit clock.

    Args:
        at: Expiry instant in the clock's own epoch.
        clock: Zero-arg callable returning "now"; defaults to
            :func:`time.monotonic` for in-process use.
    """

    __slots__ = ("at", "clock")

    def __init__(self, at: float, clock: Callable[[], float] = time.monotonic):
        self.at = float(at)
        self.clock = clock

    @classmethod
    def after(
        cls,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """Deadline ``seconds`` from now on ``clock``."""
        return cls(clock() + seconds, clock)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.at - self.clock()

    def expired(self) -> bool:
        return self.clock() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.4f}s)"


#: The ambient deadline for the work currently executing on this thread
#: (contextvars give each thread -- and each asyncio task, should one
#: appear -- an independent slot).
_CURRENT: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_resilience_deadline", default=None
)


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the ambient deadline for the block.

    ``None`` is accepted and clears any outer scope, so batch paths can
    pass through "no deadline" without branching at every call site.
    """
    token = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)


def check_deadline(point: str = "") -> None:
    """Raise :class:`DeadlineExpiredError` if the ambient deadline passed."""
    deadline = _CURRENT.get()
    if deadline is not None and deadline.expired():
        where = f" at {point}" if point else ""
        raise DeadlineExpiredError(
            f"deadline expired{where} "
            f"({-deadline.remaining():.4f}s past expiry)"
        )
