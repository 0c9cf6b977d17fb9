"""Unit tests for the service-wide retry budget (:mod:`repro.service.retry`).

The budget is the global back-pressure valve: per-query retry caps
bound one request's amplification, but N concurrent queries retrying at
once is a retry storm precisely when capacity just dropped.  These
tests pin the rolling-window semantics with a fake clock and verify the
QueryService surfaces exhaustion as an immediate failure plus the
``service.retry_budget.exhausted`` counter.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import KNNRequest
from repro.core.server import LocationServer
from repro.geometry import Rect
from repro.service import (
    QueryService,
    ResilienceConfig,
    RetryBudgetConfig,
    RetryPolicy,
)
from repro.service.retry import RetryBudget
from repro.storage import PageReadError

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# the rolling window
# ----------------------------------------------------------------------
def test_budget_caps_retries_per_window():
    clock = FakeClock()
    budget = RetryBudget(RetryBudgetConfig(max_retries=2, window_s=1.0),
                         clock=clock)
    assert budget.try_spend() is True
    assert budget.try_spend() is True
    assert budget.try_spend() is False
    assert budget.exhausted == 1
    # The window slides: old spends expire and capacity returns.
    clock.advance(1.1)
    assert budget.try_spend() is True
    assert budget.exhausted == 1


def test_budget_window_expires_incrementally():
    clock = FakeClock()
    budget = RetryBudget(RetryBudgetConfig(max_retries=2, window_s=1.0),
                         clock=clock)
    budget.try_spend()          # t=0.0
    clock.advance(0.6)
    budget.try_spend()          # t=0.6
    clock.advance(0.5)          # t=1.1: only the first spend has expired
    assert budget.try_spend() is True
    assert budget.try_spend() is False


def test_zero_budget_never_grants():
    budget = RetryBudget(RetryBudgetConfig(max_retries=0))
    assert budget.try_spend() is False
    assert budget.exhausted == 1


def test_budget_snapshot():
    clock = FakeClock()
    budget = RetryBudget(RetryBudgetConfig(max_retries=4, window_s=2.0),
                         clock=clock)
    budget.try_spend()
    budget.try_spend()
    assert budget.snapshot() == {
        "in_window": 2, "max_retries": 4, "window_s": 2.0, "exhausted": 0,
    }


def test_config_validation():
    with pytest.raises(ValueError):
        RetryBudgetConfig(max_retries=-1)
    with pytest.raises(ValueError):
        RetryBudgetConfig(window_s=0.0)


# ----------------------------------------------------------------------
# QueryService integration
# ----------------------------------------------------------------------
class FlakyServer:
    """Delegates to a real server, failing the first ``failures`` answers."""

    def __init__(self, inner: LocationServer, failures: int):
        self._inner = inner
        self._failures = failures

    def answer(self, request):
        if self._failures > 0:
            self._failures -= 1
            raise PageReadError(1, "nn", 1)
        return self._inner.answer(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _flaky_service(failures: int, max_retries: int) -> QueryService:
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    server = FlakyServer(LocationServer.from_points(points, universe=UNIT),
                         failures)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0,
                          jitter="none"),
        breaker=None,
        retry_budget=RetryBudgetConfig(max_retries=max_retries, window_s=60.0))
    return QueryService(server, resilience=resilience, sleep=lambda _: None)


def test_service_retry_within_budget_succeeds():
    service = _flaky_service(failures=1, max_retries=4)
    resp = service.answer(KNNRequest((0.5, 0.5), k=2))
    assert len(resp.result) == 2
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.retries"] == 1
    assert "service.retry_budget.exhausted" not in counters
    assert service.stats_snapshot()["resilience"]["retry_budget"] == {
        "in_window": 1, "max_retries": 4, "window_s": 60.0, "exhausted": 0,
    }


def test_service_exhausted_budget_fails_fast():
    service = _flaky_service(failures=10, max_retries=1)
    # Query 1 spends the whole budget (1 retry) and still fails.
    with pytest.raises(PageReadError):
        service.answer(KNNRequest((0.5, 0.5), k=2))
    # Query 2's failure is not retried at all: budget is spent.
    with pytest.raises(PageReadError):
        service.answer(KNNRequest((0.2, 0.8), k=2))
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.retries"] == 1
    assert counters["service.retry_budget.exhausted"] >= 1
    events = [e for e in service.events.tail(50)
              if e.get("event") == "retry.budget_exhausted"]
    assert events


def test_service_without_budget_retries_freely():
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    server = FlakyServer(LocationServer.from_points(points, universe=UNIT),
                         failures=2)
    service = QueryService(
        server, sleep=lambda _: None,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                              max_delay_s=0.0, jitter="none"),
            breaker=None))
    resp = service.answer(KNNRequest((0.5, 0.5), k=2))
    assert len(resp.result) == 2
    assert service.metrics.snapshot()["counters"]["service.retries"] == 2
