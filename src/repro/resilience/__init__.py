"""Unified failure-control plane shared by serve, cluster and persist.

Dependency-free building blocks (no imports from other ``repro``
subpackages) so every layer -- thread pool, process cluster, disk store
-- composes the same retry/deadline/breaker/shed policies instead of
growing ad-hoc per-layer knobs:

* :class:`Backoff` / :class:`RetryPolicy` -- exponential + full-jitter
  delays, budget-capped, pluggable retryability.
* :class:`Deadline` / :func:`deadline_scope` / :func:`check_deadline`
  -- end-to-end deadline propagation with per-drop-point accounting.
* :class:`CircuitBreaker` -- closed/open/half-open per-dependency
  admission.
* :class:`LoadShedder` -- queue-depth adaptive admission,
  priority-aware.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExpiredError,
    check_deadline,
    deadline_scope,
)
from repro.resilience.retry import Backoff, RetryPolicy
from repro.resilience.shedding import LoadShedder

__all__ = [
    "Backoff",
    "CircuitBreaker",
    "CLOSED",
    "Deadline",
    "DeadlineExpiredError",
    "HALF_OPEN",
    "LoadShedder",
    "OPEN",
    "RetryPolicy",
    "check_deadline",
    "deadline_scope",
]
