"""Composable retry policy: exponential backoff with full jitter.

One policy object replaces the hard-coded ``base * 2**attempt`` loops
scattered through the serving and cluster layers.  The jitter model is
"full jitter" (AWS architecture-blog style): each delay is drawn
uniformly from ``[0, min(base * factor**attempt, cap)]``, which
decorrelates retry storms -- a crashing shard's salvaged envelopes must
not land on its replacement in one synchronized wave.

The RNG is injectable so tests can pin delays deterministically.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterator


#: Multiplier of the delay ceiling per subsequent attempt.
BACKOFF_FACTOR = 2.0

#: ``True`` draws each delay uniformly from ``[0, ceiling]``; ``False``
#: returns the deterministic ceiling.
FULL_JITTER = True


class Backoff:
    """Exponential backoff schedule with full jitter.

    The ceiling grows by :data:`BACKOFF_FACTOR` per attempt and each
    delay is drawn below it (:data:`FULL_JITTER`).

    Args:
        base_s: Delay ceiling for the first retry (attempt 0).
        max_s: Hard cap on any single delay.
        rng: Source of ``uniform(a, b)``; defaults to a private
            :class:`random.Random` so seeding the global RNG elsewhere
            cannot couple retry timing to experiment reproducibility.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        max_s: float = 2.0,
        rng: random.Random | None = None,
    ):
        if base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {base_s}")
        if max_s < 0:
            raise ValueError(f"max_s must be >= 0, got {max_s}")
        self.base_s = base_s
        self.max_s = max_s
        self._rng = rng if rng is not None else random.Random()

    def ceiling(self, attempt: int) -> float:
        """Upper bound of the delay for ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.base_s * (BACKOFF_FACTOR ** attempt), self.max_s)

    def delay(self, attempt: int) -> float:
        """Concrete delay for ``attempt``; jittered when enabled."""
        ceiling = self.ceiling(attempt)
        if not FULL_JITTER or ceiling == 0.0:
            return ceiling
        return self._rng.uniform(0.0, ceiling)


class RetryPolicy:
    """Budget-capped retries with a pluggable retryability classifier.

    Args:
        budget: Maximum number of *retries* (attempts beyond the first).
        backoff: Delay schedule; a default :class:`Backoff` if omitted.
        retryable: Predicate deciding whether an exception is worth
            another attempt.  Defaults to retrying everything -- callers
            with poison-pill error types (e.g. ``CorruptTraceError``)
            pass a classifier that excludes them.
    """

    def __init__(
        self,
        budget: int = 1,
        backoff: Backoff | None = None,
        retryable: Callable[[BaseException], bool] | None = None,
    ):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        self.backoff = backoff if backoff is not None else Backoff()
        self._retryable = retryable

    def is_retryable(self, error: BaseException) -> bool:
        """Whether ``error`` merits another attempt under this policy."""
        if self._retryable is None:
            return True
        return bool(self._retryable(error))

    def delays(self) -> Iterator[float]:
        """Concrete delay per retry, one entry per unit of budget."""
        for attempt in range(self.budget):
            yield self.backoff.delay(attempt)

    def sleep(
        self,
        attempt: int,
        sleep: Callable[[float], None] = time.sleep,
    ) -> float:
        """Sleep the (jittered) delay for ``attempt``; returns the delay."""
        delay = self.backoff.delay(attempt)
        if delay > 0:
            sleep(delay)
        return delay
