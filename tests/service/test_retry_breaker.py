"""Unit tests for the retry policy, the service's retry loop and the
circuit breaker (fake clocks)."""

from __future__ import annotations

import random

import pytest

from repro.core.api import KNNRequest
from repro.core.server import LocationServer
from repro.service import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    QueryService,
    ResilienceConfig,
    RetryPolicy,
    is_transient,
)
from repro.service.faults import CLOSED, HALF_OPEN, OPEN
from repro.storage import PageReadError


class _Transient(Exception):
    transient = True


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# transient taxonomy
# ----------------------------------------------------------------------
def test_is_transient_duck_typing():
    assert is_transient(_Transient())
    assert is_transient(PageReadError(1, "nn", 1))
    assert is_transient(CircuitOpenError(0.5))
    assert not is_transient(ValueError("boom"))
    assert not is_transient(KeyboardInterrupt())


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter="bogus")


def test_backoff_caps_and_doubles_without_jitter():
    policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.05, jitter="none")
    assert [policy.backoff_s(i) for i in range(5)] == pytest.approx(
        [0.01, 0.02, 0.04, 0.05, 0.05])


def test_full_jitter_is_uniform_below_cap():
    policy = RetryPolicy(base_delay_s=0.01, max_delay_s=1.0, jitter="full")
    rng = random.Random(0)
    draws = [policy.backoff_s(3, rng) for _ in range(200)]
    cap = 0.08
    assert all(0.0 <= d <= cap for d in draws)
    assert len(set(draws)) > 100  # actually jittered, not constant


# ----------------------------------------------------------------------
# the service's retry loop (QueryService runs the only one)
# ----------------------------------------------------------------------
class ScriptedServer:
    """A real server whose first answers raise ``errors``, in order."""

    def __init__(self, *errors: Exception):
        rnd = random.Random(5)
        self._inner = LocationServer.from_points(
            [(rnd.random(), rnd.random()) for _ in range(200)])
        self._errors = list(errors)
        self.calls = 0

    def answer(self, request):
        self.calls += 1
        if self._errors:
            raise self._errors.pop(0)
        return self._inner.answer(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _retrying_service(server, policy: RetryPolicy, sleep=lambda _: None):
    return QueryService(server, sleep=sleep,
                        resilience=ResilienceConfig(retry=policy,
                                                    breaker=None))


def test_service_retry_sleeps_the_doubling_backoff():
    server = ScriptedServer(_Transient("not yet"), _Transient("not yet"))
    sleeps = []
    service = _retrying_service(
        server, RetryPolicy(max_attempts=3, base_delay_s=0.01,
                            jitter="none"), sleep=sleeps.append)
    assert len(service.answer(KNNRequest((0.5, 0.5), k=2)).result) == 2
    assert server.calls == 3
    assert sleeps == pytest.approx([0.01, 0.02])


def test_service_raises_the_last_transient_error_at_max_attempts():
    errors = [_Transient(f"attempt {i}") for i in range(5)]
    server = ScriptedServer(*errors)
    service = _retrying_service(
        server, RetryPolicy(max_attempts=3, base_delay_s=0.0))
    with pytest.raises(_Transient) as raised:
        service.answer(KNNRequest((0.5, 0.5)))
    assert raised.value is errors[2]
    assert server.calls == 3
    assert service.metrics.snapshot()["counters"]["service.retries"] == 2


def test_service_raises_a_non_transient_error_after_one_call():
    server = ScriptedServer(ValueError("bug, not weather"))
    service = _retrying_service(
        server, RetryPolicy(max_attempts=5, base_delay_s=0.0))
    with pytest.raises(ValueError):
        service.answer(KNNRequest((0.5, 0.5)))
    assert server.calls == 1
    assert "service.retries" not in service.metrics.snapshot()["counters"]


def test_service_retry_events_and_spans_number_each_attempt():
    server = ScriptedServer(_Transient(), _Transient())
    service = _retrying_service(
        server, RetryPolicy(max_attempts=3, base_delay_s=0.0))
    service.answer(KNNRequest((0.5, 0.5)))
    retries = [e["attempt"] for e in service.events.tail(50)
               if e.get("event") == "query.retry"]
    assert retries == [1, 2]
    trace = service.recent_traces(1)[0]
    assert trace.retries == 2
    assert [s.meta["attempt"] for s in trace.spans
            if s.name == "retry_backoff"] == [1, 2]


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def test_breaker_config_validation():
    with pytest.raises(ValueError):
        BreakerConfig(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerConfig(reset_timeout_s=-1.0)


def test_breaker_trips_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=3), clock=clock)
    assert breaker.state == CLOSED
    for _ in range(2):
        breaker.before_call()
        breaker.record_failure()
    assert breaker.state == CLOSED
    breaker.before_call()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.trips == 1
    with pytest.raises(CircuitOpenError) as exc_info:
        breaker.before_call()
    assert exc_info.value.retry_after_s == pytest.approx(1.0)
    assert breaker.rejections == 1


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker(BreakerConfig(failure_threshold=2),
                             clock=FakeClock())
    for _ in range(5):
        breaker.record_failure()
        breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.trips == 0


def test_half_open_probe_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, reset_timeout_s=0.5), clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(0.6)
    assert breaker.state == HALF_OPEN
    breaker.before_call()  # the probe is admitted
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.recoveries == 1


def test_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, reset_timeout_s=0.5), clock=clock)
    breaker.record_failure()
    clock.advance(0.6)
    breaker.before_call()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.trips == 2
    # The reopen restarts the timeout from the probe failure.
    clock.advance(0.4)
    with pytest.raises(CircuitOpenError):
        breaker.before_call()


def test_half_open_limits_concurrent_probes():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=1, reset_timeout_s=0.1,
                      half_open_max_probes=1), clock=clock)
    breaker.record_failure()
    clock.advance(0.2)
    breaker.before_call()  # probe #1 admitted, still in flight
    with pytest.raises(CircuitOpenError):
        breaker.before_call()  # probe #2 rejected


def test_snapshot_is_json_shaped():
    breaker = CircuitBreaker(clock=FakeClock())
    breaker.record_failure()
    snap = breaker.snapshot()
    assert snap == {
        "state": CLOSED, "trips": 0, "recoveries": 0, "rejections": 0,
        "consecutive_failures": 1,
    }
