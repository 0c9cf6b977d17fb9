"""Failure isolation for the query service: the circuit breaker.

A :class:`CircuitBreaker` sits in front of the server call and keeps a
dying disk from dragging every client down with it:

* **closed** — requests flow; consecutive transient failures are
  counted, and reaching ``failure_threshold`` trips the breaker;
* **open** — requests are rejected immediately with
  :class:`CircuitOpenError` (no disk work, no lock contention) until
  ``reset_timeout_s`` has elapsed;
* **half-open** — up to ``half_open_max_probes`` in-flight requests are
  let through; ``success_threshold`` successes close the breaker (a
  *recovery*), any failure re-opens it.

All transitions are thread-safe and counted (``trips``,
``recoveries``, ``rejections``) so the chaos suite can assert the
trip/recover cycle actually happened.  The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict

__all__ = ["BreakerConfig", "CircuitBreaker", "CircuitOpenError",
           "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitOpenError(RuntimeError):
    """Rejected without touching the server: the breaker is open.

    Marked ``transient`` so clients treat it like any other temporary
    outage (stale-cache fallback); the service itself never retries it.
    """

    transient = True

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"circuit breaker open; retry in {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery thresholds of one :class:`CircuitBreaker`."""

    #: Consecutive transient failures that trip a closed breaker.
    failure_threshold: int = 5
    #: Seconds an open breaker waits before probing (half-open).
    reset_timeout_s: float = 1.0
    #: Concurrent probe requests admitted while half-open.
    half_open_max_probes: int = 1
    #: Probe successes needed to close again.
    success_threshold: int = 1

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be non-negative")
        if self.half_open_max_probes < 1:
            raise ValueError("half_open_max_probes must be >= 1")
        if self.success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")


class CircuitBreaker:
    """A per-service closed/open/half-open circuit breaker."""

    def __init__(self, config: BreakerConfig = BreakerConfig(),
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips = 0
        self.recoveries = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        """State after applying the open→half-open timeout (lock held)."""
        if self._state == OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed >= self.config.reset_timeout_s:
                self._state = HALF_OPEN
                self._probes_in_flight = 0
                self._probe_successes = 0
        return self._state

    def before_call(self) -> None:
        """Admit one request or raise :class:`CircuitOpenError`."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return
            if state == HALF_OPEN:
                if self._probes_in_flight < self.config.half_open_max_probes:
                    self._probes_in_flight += 1
                    return
                self.rejections += 1
                raise CircuitOpenError(0.0)
            remaining = (self.config.reset_timeout_s
                         - (self._clock() - self._opened_at))
            self.rejections += 1
            raise CircuitOpenError(max(0.0, remaining))

    def record_success(self) -> bool:
        """Count a success; True when it closed the breaker (a recovery)."""
        with self._lock:
            if self._state != HALF_OPEN:
                self._consecutive_failures = 0
                return False
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes < self.config.success_threshold:
                return False
            self._state = CLOSED
            self._consecutive_failures = 0
            self.recoveries += 1
            return True

    def record_failure(self) -> bool:
        """Count a transient failure; True when it tripped the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                    self._state == CLOSED and self._consecutive_failures
                    >= self.config.failure_threshold):
                self._trip()
                return True
            return False

    def _trip(self) -> None:
        """Transition to OPEN (lock held)."""
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.trips += 1

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable breaker state for stats snapshots."""
        with self._lock:
            return {
                "state": self._effective_state(),
                "trips": self.trips,
                "recoveries": self.recoveries,
                "rejections": self.rejections,
                "consecutive_failures": self._consecutive_failures,
            }
