"""Retry with capped exponential backoff and full jitter.

The service retries *transient* failures — simulated page-read errors,
injected timeouts — with the AWS-style "full jitter" schedule: attempt
``i`` sleeps ``uniform(0, min(max_delay, base * 2**i))``.  Full jitter
decorrelates a thundering herd of clients retrying the same stressed
disk, which matters once millions of subscribers share one server.

An exception opts into retrying by carrying a truthy ``transient``
attribute (see :class:`repro.storage.faulty.PageReadError`); everything
else propagates immediately.  :class:`repro.service.faults.CircuitOpenError`
is deliberately *not* retried by the service even though it is marked
transient for clients: retrying against an open breaker would defeat
its purpose.

:class:`RetryBudget` caps the *total* retries the whole service spends
per rolling window, across all queries.  Per-query retry caps bound
each request's amplification, but when a replica dies under load every
in-flight query retries at once — N concurrent queries × (attempts-1)
retries is a retry *storm* precisely when capacity just dropped.  The
budget is the global back-pressure valve: once it is spent, further
failures surface immediately (clients fall back to their stale caches)
instead of multiplying load.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

__all__ = ["RetryPolicy", "RetryBudget", "RetryBudgetConfig",
           "is_transient"]


def is_transient(exc: BaseException) -> bool:
    """Does ``exc`` opt into retrying (duck-typed ``transient`` flag)?"""
    return bool(getattr(exc, "transient", False))


@dataclass(frozen=True)
class RetryPolicy:
    """Shape of the retry schedule.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retrying.  ``jitter="full"`` draws uniformly in ``[0, cap]``;
    ``jitter="none"`` sleeps the cap itself (deterministic, for tests).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    max_delay_s: float = 0.25
    jitter: str = "full"

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.jitter not in ("full", "none"):
            raise ValueError("jitter must be 'full' or 'none'")

    def backoff_s(self, attempt: int,
                  rng: Optional[random.Random] = None) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        cap = min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))
        if self.jitter == "none":
            return cap
        return (rng or random).uniform(0.0, cap)


@dataclass(frozen=True)
class RetryBudgetConfig:
    """Cap on total service-wide retries per rolling window."""

    max_retries: int = 32
    window_s: float = 1.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


class RetryBudget:
    """The runtime state of a :class:`RetryBudgetConfig`: a thread-safe
    sliding window of retry timestamps.

    :meth:`try_spend` answers "may one more retry happen now?" — False
    once ``max_retries`` have been spent within the trailing
    ``window_s`` seconds.  Exhaustions are tallied on ``exhausted`` (the
    service mirrors it to the ``service.retry_budget.exhausted``
    counter).  ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, config: Optional[RetryBudgetConfig] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config if config is not None else RetryBudgetConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._spent: Deque[float] = deque()
        self.exhausted = 0

    def try_spend(self) -> bool:
        """Reserve one retry from the window; False when exhausted."""
        now = self._clock()
        horizon = now - self.config.window_s
        with self._lock:
            while self._spent and self._spent[0] <= horizon:
                self._spent.popleft()
            if len(self._spent) >= self.config.max_retries:
                self.exhausted += 1
                return False
            self._spent.append(now)
            return True

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "in_window": len(self._spent),
                "max_retries": self.config.max_retries,
                "window_s": self.config.window_s,
                "exhausted": self.exhausted,
            }
