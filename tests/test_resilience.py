"""Unit tests for the composable failure-control primitives.

Everything in :mod:`repro.resilience` is deterministic under an
injected clock/RNG, so these tests never sleep and never race.
"""

import random

import pytest

from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    Backoff,
    CircuitBreaker,
    Deadline,
    DeadlineExpiredError,
    LoadShedder,
    RetryPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
)


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Backoff / RetryPolicy
# ----------------------------------------------------------------------


class TestBackoff:
    def test_ceiling_grows_exponentially_to_cap(self):
        backoff = Backoff(base_s=0.1, factor=2.0, max_s=0.5, jitter=False)
        assert [backoff.ceiling(a) for a in range(5)] == [
            0.1, 0.2, 0.4, 0.5, 0.5,
        ]

    def test_unjittered_delay_is_the_ceiling(self):
        backoff = Backoff(base_s=0.1, factor=2.0, max_s=1.0, jitter=False)
        assert backoff.delay(2) == pytest.approx(0.4)

    def test_full_jitter_samples_uniformly_below_ceiling(self):
        backoff = Backoff(
            base_s=0.1, factor=2.0, max_s=1.0, rng=random.Random(7)
        )
        delays = [backoff.delay(3) for _ in range(200)]
        assert all(0.0 <= d <= 0.8 for d in delays)
        # Full jitter, not fixed: the samples actually spread out.
        assert max(delays) - min(delays) > 0.4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Backoff(base_s=-0.1)
        with pytest.raises(ValueError):
            Backoff(max_s=-1.0)
        with pytest.raises(ValueError):
            Backoff(factor=0.5)
        with pytest.raises(ValueError):
            Backoff().ceiling(-1)


class TestRetryPolicy:
    def test_delays_generator_matches_budget(self):
        policy = RetryPolicy(
            budget=3, backoff=Backoff(base_s=0.1, jitter=False, max_s=1.0)
        )
        assert list(policy.delays()) == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
        ]

    def test_everything_retryable_without_classifier(self):
        assert RetryPolicy(budget=1).is_retryable(ValueError("x"))

    def test_classifier_gates_retries(self):
        policy = RetryPolicy(
            budget=2, retryable=lambda e: not isinstance(e, KeyError)
        )
        assert policy.is_retryable(ValueError("transient"))
        assert not policy.is_retryable(KeyError("permanent"))

    def test_sleep_uses_injected_sleeper_and_returns_delay(self):
        naps = []
        policy = RetryPolicy(
            budget=2, backoff=Backoff(base_s=0.05, jitter=False, max_s=1.0)
        )
        delay = policy.sleep(1, sleep=naps.append)
        assert naps == [pytest.approx(0.1)]
        assert delay == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


class TestDeadline:
    def test_remaining_and_expiry_follow_the_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(2.5)
        assert deadline.remaining() == pytest.approx(-0.5)
        assert deadline.expired()

    def test_scope_is_ambient_and_restores_outer(self):
        clock = FakeClock()
        outer = Deadline.after(10.0, clock=clock)
        inner = Deadline.after(1.0, clock=clock)
        assert current_deadline() is None
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_clears_the_outer_deadline(self):
        clock = FakeClock()
        with deadline_scope(Deadline.after(1.0, clock=clock)):
            with deadline_scope(None):
                assert current_deadline() is None
                check_deadline("anywhere")  # no ambient deadline: no-op

    def test_check_deadline_raises_with_the_drop_point(self):
        clock = FakeClock()
        with deadline_scope(Deadline.after(1.0, clock=clock)):
            check_deadline("stage_a")
            clock.advance(1.5)
            with pytest.raises(DeadlineExpiredError, match="stage_a"):
                check_deadline("stage_a")


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_grants_limited_trials_then_refuses(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, open_duration_s=5.0, half_open_trials=1,
            clock=clock,
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.1)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the one trial
        assert not breaker.allow()   # no more until evidence arrives

    def test_half_open_success_closes_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, open_duration_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        breaker.record_failure()  # trial failed: straight back to open
        assert breaker.state == OPEN

    def test_transition_hook_sees_every_edge(self):
        clock = FakeClock()
        edges = []
        breaker = CircuitBreaker(
            failure_threshold=1, open_duration_s=1.0, clock=clock,
            on_transition=lambda old, new: edges.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(1.1)
        breaker.allow()
        breaker.record_success()
        assert edges == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]


# ----------------------------------------------------------------------
# LoadShedder
# ----------------------------------------------------------------------


#: Highest queue depth ``LoadShedder(capacity=10)`` admits, by priority.
#: Priority p < 0 is admitted while ``depth / capacity < max(0.25,
#: 1.0 + p * 0.15)``; at p = -2 the 7-of-10 cell sits on the boundary
#: (0.7 < 0.7 is false).  Priority >= 0 is never shed on depth.
_HIGHEST_ADMITTED_DEPTH = {-6: 2, -5: 2, -4: 3, -3: 5, -2: 6, -1: 8}


class TestLoadShedder:
    @pytest.mark.parametrize("priority", range(-6, 3))
    def test_admission_truth_table(self, priority):
        shedder = LoadShedder(capacity=10)
        admitted = [d for d in range(12) if shedder.admit(d, priority)]
        highest = _HIGHEST_ADMITTED_DEPTH.get(priority, 11)
        assert admitted == list(range(highest + 1))

    def test_default_config_never_sheds_on_depth_alone(self):
        # Threshold >= 1.0 disables the depth signal: queue saturation
        # keeps its own typed QueueFullError at the bounded queue.
        shedder = LoadShedder(capacity=10)
        assert shedder.admit(depth=10, priority=0)

    def test_negative_priority_sheds_early_on_depth(self):
        shedder = LoadShedder(capacity=10)
        assert shedder.admit(depth=8, priority=-1)
        assert not shedder.admit(depth=9, priority=-1)

    def test_threshold_floor(self):
        shedder = LoadShedder(capacity=10)
        assert shedder.threshold(-100) == pytest.approx(0.25)
