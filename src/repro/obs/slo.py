"""Declarative SLOs with multi-window, multi-burn-rate budget tracking.

An :class:`SLOEngine` turns raw per-query outcomes into the three
signals an operator (and the admission controller) actually acts on:

* **error-budget burn rate** per rolling window — how fast the
  objective's allowance is being consumed, where ``1.0`` means "exactly
  on target spend";
* **alerts** in the SRE multi-window/multi-burn-rate shape: a *fast*
  page fires only when both the 5-minute and 1-hour windows burn above
  ``fast_burn`` (a short spike alone cannot page, nor can stale history
  alone keep paging); a *slow* ticket pairs the 6-hour and 3-day
  windows at ``slow_burn``;
* a recommended **brownout level** (0 normal → 3 reject) that the
  query service feeds into the
  :class:`~repro.service.admission.AdmissionController` as a floor, so
  budget burn sheds load even while queue depth looks healthy.

The burn→brownout contract (documented in docs/OBSERVABILITY.md):

========  =====================================================
level     condition (any declared SLO)
========  =====================================================
0 normal  no fast alert
1 reduced fast alert firing
2 cache_only fast alert and the 5-minute burn is >= 2x ``fast_burn``
3 reject  fast alert and the long-window error budget is exhausted
========  =====================================================

A slow alert alone never sheds load — it is a ticket, not a page.

Everything runs on an injectable ``clock`` (seconds; defaults to
``time.monotonic``), so tests and simulations drive the windows
deterministically.  The engine never imports the service layer; the
service pushes observations in and reads the recommendation out.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

__all__ = ["SLOConfig", "SLOEngine", "BROWNOUT_NAMES"]

#: Brownout level names, index-aligned with the admission ladder.
BROWNOUT_NAMES = ("normal", "reduced", "cache_only", "reject")

_OBJECTIVES = ("availability", "latency", "staleness")


@dataclass(frozen=True)
class SLOConfig:
    """One declared objective.

    ``objective`` selects what counts as a *bad* event:

    * ``availability`` — any failed query (except admission sheds,
      which the service excludes as mitigation, not symptom);
    * ``latency`` — a failed query, or a successful one slower than
      ``threshold_ms``;
    * ``staleness`` — a successful query served more than
      ``max_staleness`` epochs stale (failures are not observed: only
      served answers have a staleness).

    ``target`` is the good fraction the objective promises (0.999 →
    a 0.1% error budget).  ``query_kind`` restricts the objective to
    one kind; None observes every query.  The window pairs and burn
    thresholds default to the SRE handbook values.
    """

    name: str
    objective: str = "availability"
    target: float = 0.999
    threshold_ms: float = 50.0
    max_staleness: int = 0
    query_kind: Optional[str] = None
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    fast_windows: Tuple[int, int] = (300, 3600)
    slow_windows: Tuple[int, int] = (21600, 259200)

    def __post_init__(self):
        if not self.name:
            raise ValueError("SLO name must be non-empty")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}, "
                             f"not {self.objective!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.objective == "latency" and self.threshold_ms <= 0:
            raise ValueError("threshold_ms must be positive")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")
        for pair in (self.fast_windows, self.slow_windows):
            if len(pair) != 2 or pair[0] <= 0 or pair[1] <= pair[0]:
                raise ValueError("window pairs must be (short, long) with "
                                 "0 < short < long")

    @property
    def budget(self) -> float:
        """The error budget: the bad fraction the target allows."""
        return 1.0 - self.target

    def windows(self) -> Tuple[int, ...]:
        return tuple(self.fast_windows) + tuple(self.slow_windows)


class _WindowCounts:
    """Good/bad tallies over one rolling window, 1-second buckets.

    Running totals are maintained incrementally (prune subtracts), so
    reading the window is O(expired buckets), not O(window length).
    """

    __slots__ = ("window_s", "_buckets", "good", "bad")

    def __init__(self, window_s: int):
        self.window_s = window_s
        #: (bucket_second, good, bad), oldest first.
        self._buckets: Deque[List[int]] = deque()
        self.good = 0
        self.bad = 0

    def record(self, now_s: float, good: int, bad: int) -> None:
        sec = int(now_s)
        if self._buckets and self._buckets[-1][0] == sec:
            self._buckets[-1][1] += good
            self._buckets[-1][2] += bad
        else:
            self._buckets.append([sec, good, bad])
        self.good += good
        self.bad += bad
        self._prune(now_s)

    def totals(self, now_s: float) -> Tuple[int, int]:
        self._prune(now_s)
        return self.good, self.bad

    def _prune(self, now_s: float) -> None:
        floor = int(now_s) - self.window_s
        while self._buckets and self._buckets[0][0] <= floor:
            _, good, bad = self._buckets.popleft()
            self.good -= good
            self.bad -= bad


class _Objective:
    """One objective's windows plus the tally of its current second.

    Observations within one second land in ``good``/``bad`` only; the
    tally is folded into every window when the second changes and
    before every read.  A run of records into the same second is one
    record: the first appends or extends that second's bucket and
    prunes, and the rest only add (the pruning floor is the same), so
    folded windows hold exactly what per-observation recording would,
    even for out-of-order timestamps.
    """

    __slots__ = ("cfg", "windows", "sec", "good", "bad", "observed")

    def __init__(self, cfg: SLOConfig):
        self.cfg = cfg
        self.windows: Dict[int, _WindowCounts] = {
            w: _WindowCounts(w) for w in cfg.windows()}
        self.sec: Optional[int] = None
        self.good = 0
        self.bad = 0
        #: Every folded observation: {"good": n, "bad": n}.
        self.observed = {"good": 0, "bad": 0}

    def fold(self) -> None:
        good, bad = self.good, self.bad
        if not (good or bad):
            return
        for counts in self.windows.values():
            counts.record(self.sec, good, bad)
        self.observed["good"] += good
        self.observed["bad"] += bad
        self.good = self.bad = 0


def _window_label(seconds: int) -> str:
    if seconds % 86400 == 0:
        return f"{seconds // 86400}d"
    if seconds % 3600 == 0:
        return f"{seconds // 3600}h"
    if seconds % 60 == 0:
        return f"{seconds // 60}m"
    return f"{seconds}s"


class SLOEngine:
    """Observes query outcomes, tracks budgets, recommends brownouts.

    ``metrics`` (a :class:`~repro.service.metrics.MetricsRegistry`, or
    None) receives ``slo.*`` gauges on every evaluation; the query
    service assigns its own registry when the engine is attached
    without one.  ``eval_interval_s`` rate-limits
    :meth:`maybe_evaluate`, which the service calls once per query.
    """

    def __init__(self, configs: Sequence[SLOConfig],
                 metrics=None, clock=time.monotonic,
                 eval_interval_s: float = 1.0):
        configs = list(configs)
        if not configs:
            raise ValueError("at least one SLOConfig is required")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.configs: Tuple[SLOConfig, ...] = tuple(configs)
        self.metrics = metrics
        self._clock = clock
        self.eval_interval_s = float(eval_interval_s)
        self._lock = threading.Lock()
        self._objectives: Tuple[_Objective, ...] = tuple(
            _Objective(c) for c in configs)
        self._last_eval: Optional[float] = None
        self._level = 0
        self._status: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    # the write path (called by the service per finished/failed query)
    # ------------------------------------------------------------------
    def observe(self, kind: str, latency_ms: Optional[float] = None,
                error: bool = False, staleness: int = 0,
                ts: Optional[float] = None) -> None:
        """Fold one query outcome into every matching objective."""
        sec = int(self._clock() if ts is None else ts)
        with self._lock:
            for obj in self._objectives:
                cfg = obj.cfg
                if cfg.query_kind is not None and cfg.query_kind != kind:
                    continue
                if cfg.objective == "availability":
                    bad = error
                elif cfg.objective == "latency":
                    bad = error or (latency_ms is not None
                                    and latency_ms > cfg.threshold_ms)
                else:  # staleness: only served answers are observable
                    if error:
                        continue
                    bad = staleness > cfg.max_staleness
                if obj.sec != sec:
                    obj.fold()
                    obj.sec = sec
                if bad:
                    obj.bad += 1
                else:
                    obj.good += 1

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def maybe_evaluate(self) -> Optional[int]:
        """Evaluate if ``eval_interval_s`` elapsed; None when skipped."""
        now_s = self._clock()
        with self._lock:
            if (self._last_eval is not None
                    and now_s - self._last_eval < self.eval_interval_s):
                return None
        return self.evaluate(now_s)

    def evaluate(self, now: Optional[float] = None) -> int:
        """Recompute burn rates and alerts; returns the brownout level."""
        now_s = self._clock() if now is None else now
        level = 0
        status: Dict[str, Dict[str, object]] = {}
        with self._lock:
            self._last_eval = now_s
            for obj in self._objectives:
                obj.fold()
                cfg, windows = obj.cfg, obj.windows
                burn: Dict[int, float] = {}
                for w, counts in windows.items():
                    good, bad = counts.totals(now_s)
                    total = good + bad
                    frac = bad / total if total else 0.0
                    burn[w] = frac / cfg.budget
                fast = (burn[cfg.fast_windows[0]] >= cfg.fast_burn
                        and burn[cfg.fast_windows[1]] >= cfg.fast_burn)
                slow = (burn[cfg.slow_windows[0]] >= cfg.slow_burn
                        and burn[cfg.slow_windows[1]] >= cfg.slow_burn)
                # Budget spent over the longest window, as a fraction of
                # the allowance; remaining can go negative (overspent).
                long_w = windows[cfg.slow_windows[1]]
                good, bad = long_w.totals(now_s)
                total = good + bad
                frac = bad / total if total else 0.0
                remaining = 1.0 - frac / cfg.budget
                slo_level = 0
                if fast:
                    slo_level = 1
                    if burn[cfg.fast_windows[0]] >= 2.0 * cfg.fast_burn:
                        slo_level = 2
                    if remaining <= 0.0:
                        slo_level = 3
                level = max(level, slo_level)
                status[cfg.name] = {
                    "objective": cfg.objective,
                    "target": cfg.target,
                    "burn_rate": {_window_label(w): burn[w]
                                  for w in sorted(burn)},
                    "fast_alert": fast,
                    "slow_alert": slow,
                    "budget_remaining": remaining,
                    "observed": dict(obj.observed),
                    "recommended_level": slo_level,
                }
            self._level = level
            self._status = status
        if self.metrics is not None:
            self._export(status, level)
        return level

    def _export(self, status: Dict[str, Dict[str, object]],
                level: int) -> None:
        m = self.metrics
        for name, s in status.items():
            by_slo = {"slo": name}
            for label, value in s["burn_rate"].items():
                m.gauge("slo.burn_rate",
                        labels={"slo": name, "window": label}).set(value)
            m.gauge("slo.budget_remaining", labels=by_slo).set(
                s["budget_remaining"])
            m.gauge("slo.alert", labels={"slo": name,
                                         "severity": "fast"}).set(
                1.0 if s["fast_alert"] else 0.0)
            m.gauge("slo.alert", labels={"slo": name,
                                         "severity": "slow"}).set(
                1.0 if s["slow_alert"] else 0.0)
        m.gauge("slo.brownout_level").set(level)

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def recommended_level(self) -> int:
        """The brownout level of the most recent evaluation."""
        return self._level

    def latency_violation(self, kind: str,
                          latency_ms: float) -> Optional[str]:
        """The name of a latency SLO ``latency_ms`` violates, if any.

        The tail sampler uses this to pin traces that individually
        breach a declared latency objective.
        """
        for cfg in self.configs:
            if cfg.objective != "latency":
                continue
            if cfg.query_kind is not None and cfg.query_kind != kind:
                continue
            if latency_ms > cfg.threshold_ms:
                return cfg.name
        return None

    def snapshot(self) -> Dict[str, object]:
        """The most recent evaluation, JSON-shaped (the /slo endpoint)."""
        with self._lock:
            return {
                "evaluated_at": self._last_eval,
                "brownout_level": self._level,
                "brownout": BROWNOUT_NAMES[self._level],
                "slos": {name: dict(s) for name, s in self._status.items()},
            }
