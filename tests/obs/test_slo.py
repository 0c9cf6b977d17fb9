"""The SLO engine: windows, burn rates, alerts, the brownout ladder.

Everything runs on an injected fake clock, so window arithmetic is
exact and deterministic — no sleeps, no wall time.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import SLOConfig, SLOEngine
from repro.obs.slo import BROWNOUT_NAMES, _window_label
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, s: float) -> None:
        self.t += s


def _engine(clock, **overrides) -> SLOEngine:
    """An availability SLO with test-friendly thresholds.

    target=0.9 gives a 10% error budget, so a recent bad fraction of
    0.2 burns at 2.0; fast_burn=2.0 / slow_burn=6.0 keep the ladder
    arithmetic readable.
    """
    cfg = dict(name="avail", objective="availability", target=0.9,
               fast_burn=2.0)
    cfg.update(overrides)
    return SLOEngine([SLOConfig(**cfg)], clock=clock, eval_interval_s=0.0)


def _seed_good(engine, n: int = 1000) -> None:
    for _ in range(n):
        engine.observe("knn", latency_ms=1.0)


class TestConfigValidation:
    def test_rejects_bad_objective(self):
        with pytest.raises(ValueError):
            SLOConfig(name="x", objective="throughput")

    def test_rejects_target_outside_unit_interval(self):
        for target in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                SLOConfig(name="x", target=target)

    def test_rejects_unordered_windows(self):
        with pytest.raises(ValueError):
            SLOConfig(name="x", fast_windows=(3600, 300))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            SLOEngine([SLOConfig(name="a"), SLOConfig(name="a")])

    def test_budget_is_one_minus_target(self):
        assert SLOConfig(name="x", target=0.999).budget == pytest.approx(0.001)

    def test_window_labels(self):
        assert _window_label(300) == "5m"
        assert _window_label(3600) == "1h"
        assert _window_label(21600) == "6h"
        assert _window_label(259200) == "3d"
        assert _window_label(45) == "45s"


class TestBurnAndAlerts:
    def test_no_traffic_burns_nothing(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        assert engine.evaluate() == 0
        row = engine.snapshot()["slos"]["avail"]
        assert all(b == 0.0 for b in row["burn_rate"].values())
        assert row["budget_remaining"] == 1.0

    def test_uniform_bad_fraction_sets_burn_rate(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        for i in range(100):
            engine.observe("knn", error=(i < 20))  # 20% bad
        engine.evaluate()
        row = engine.snapshot()["slos"]["avail"]
        # 0.2 bad fraction over a 0.1 budget = burning 2x the allowance.
        assert row["burn_rate"]["5m"] == pytest.approx(2.0)
        assert row["burn_rate"]["3d"] == pytest.approx(2.0)

    def test_short_spike_alone_cannot_page(self):
        """Fast alert needs BOTH the 5m and 1h windows above threshold."""
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        _seed_good(engine)               # healthy hour-scale history
        clock.advance(600.0)             # past 5m, inside 1h
        for _ in range(30):
            engine.observe("knn", error=True)   # 5m window: 100% bad
        engine.evaluate()
        row = engine.snapshot()["slos"]["avail"]
        assert row["burn_rate"]["5m"] > 2.0
        assert row["burn_rate"]["1h"] < 2.0
        assert row["fast_alert"] is False
        assert engine.recommended_level() == 0

    def test_stale_history_alone_cannot_keep_paging(self):
        """Once the 5m window clears, the fast alert drops even though
        the 1h window still remembers the burst."""
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        for _ in range(50):
            engine.observe("knn", error=True)
        assert engine.evaluate() >= 1
        clock.advance(400.0)             # 5m window forgets the burst
        for _ in range(50):
            engine.observe("knn")
        assert engine.evaluate() == 0

    def test_slow_alert_is_a_ticket_not_a_page(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock, fast_burn=50.0, slow_burn=1.5)
        for i in range(100):
            engine.observe("knn", error=(i % 5 == 0))  # 20% bad, burn 2.0
        assert engine.evaluate() == 0
        row = engine.snapshot()["slos"]["avail"]
        assert row["slow_alert"] is True
        assert row["fast_alert"] is False


class TestBrownoutLadder:
    def test_level_1_on_fast_alert(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        _seed_good(engine)
        clock.advance(7200.0)            # old good stays only in 6h/3d
        for i in range(100):
            engine.observe("knn", error=(i < 25))  # recent burn 2.5
        assert engine.evaluate() == 1
        assert engine.snapshot()["brownout"] == "reduced"

    def test_level_2_when_5m_burn_doubles_fast_burn(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        _seed_good(engine)
        clock.advance(7200.0)
        for i in range(100):
            engine.observe("knn", error=(i < 60))  # recent burn 6.0 >= 2x2.0
        assert engine.evaluate() == 2
        assert engine.snapshot()["brownout"] == "cache_only"

    def test_level_3_when_budget_exhausted(self):
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        for _ in range(50):
            engine.observe("knn", error=True)  # burn 10 in every window
        assert engine.evaluate() == 3
        row = engine.snapshot()["slos"]["avail"]
        assert row["budget_remaining"] <= 0.0
        assert engine.snapshot()["brownout"] == "reject"

    def test_level_names_align_with_admission_ladder(self):
        from repro.service.admission import LEVEL_NAMES
        assert BROWNOUT_NAMES == LEVEL_NAMES


class TestObjectives:
    def test_latency_objective_counts_slow_successes(self):
        clock = FakeClock(1000.0)
        engine = SLOEngine(
            [SLOConfig(name="lat", objective="latency", target=0.9,
                       threshold_ms=10.0, fast_burn=2.0)],
            clock=clock, eval_interval_s=0.0)
        for i in range(100):
            engine.observe("knn", latency_ms=50.0 if i < 30 else 1.0)
        engine.evaluate()
        row = engine.snapshot()["slos"]["lat"]
        assert row["observed"] == {"good": 70, "bad": 30}
        assert row["burn_rate"]["5m"] == pytest.approx(3.0)

    def test_staleness_objective_ignores_errors(self):
        clock = FakeClock(1000.0)
        engine = SLOEngine(
            [SLOConfig(name="fresh", objective="staleness", target=0.9,
                       max_staleness=2)],
            clock=clock, eval_interval_s=0.0)
        engine.observe("knn", error=True)            # not observable
        engine.observe("knn", staleness=1)           # within bound
        engine.observe("knn", staleness=5)           # violating
        engine.evaluate()
        row = engine.snapshot()["slos"]["fresh"]
        assert row["observed"] == {"good": 1, "bad": 1}

    def test_query_kind_filter(self):
        clock = FakeClock(1000.0)
        engine = SLOEngine(
            [SLOConfig(name="knn-only", target=0.9, query_kind="knn")],
            clock=clock, eval_interval_s=0.0)
        engine.observe("window", error=True)
        engine.observe("knn")
        engine.evaluate()
        row = engine.snapshot()["slos"]["knn-only"]
        assert row["observed"] == {"good": 1, "bad": 0}

    def test_latency_violation_names_the_slo(self):
        engine = SLOEngine([
            SLOConfig(name="lat-knn", objective="latency", target=0.99,
                      threshold_ms=10.0, query_kind="knn"),
            SLOConfig(name="avail", objective="availability"),
        ])
        assert engine.latency_violation("knn", 50.0) == "lat-knn"
        assert engine.latency_violation("knn", 5.0) is None
        assert engine.latency_violation("window", 50.0) is None


class TestEvaluationAndExport:
    def test_maybe_evaluate_is_rate_limited(self):
        clock = FakeClock(1000.0)
        engine = SLOEngine([SLOConfig(name="a")], clock=clock,
                           eval_interval_s=1.0)
        assert engine.maybe_evaluate() == 0      # first call evaluates
        assert engine.maybe_evaluate() is None   # too soon
        clock.advance(1.5)
        assert engine.maybe_evaluate() == 0

    def test_gauges_exported_to_registry(self):
        clock = FakeClock(1000.0)
        metrics = MetricsRegistry()
        engine = SLOEngine([SLOConfig(name="avail", target=0.9,
                                      fast_burn=2.0)],
                           metrics=metrics, clock=clock, eval_interval_s=0.0)
        for _ in range(10):
            engine.observe("knn", error=True)
        engine.evaluate()
        gauges = metrics.snapshot()["gauges"]
        assert gauges['slo.burn_rate{slo="avail",window="5m"}'] \
            == pytest.approx(10.0)
        assert gauges['slo.budget_remaining{slo="avail"}'] < 0.0
        assert gauges['slo.alert{severity="fast",slo="avail"}'] == 1.0
        assert gauges["slo.brownout_level"] == 3.0

    def test_snapshot_is_json_shaped(self):
        import json
        clock = FakeClock(1000.0)
        engine = _engine(clock)
        engine.observe("knn")
        engine.evaluate()
        snap = engine.snapshot()
        json.dumps(snap)
        assert snap["brownout_level"] == 0
        assert set(snap["slos"]) == {"avail"}
        assert snap["evaluated_at"] == 1000.0


# ----------------------------------------------------------------------
# the reference: every observation recorded into every window
# ----------------------------------------------------------------------
class _ReferenceWindow:
    """One rolling window recorded per observation (1-second buckets,
    pruned on every record and read) — the engine's original shape."""

    def __init__(self, window_s: int):
        self.window_s = window_s
        self.buckets = deque()
        self.good = 0
        self.bad = 0

    def record(self, now_s: float, good: int, bad: int) -> None:
        sec = int(now_s)
        if self.buckets and self.buckets[-1][0] == sec:
            self.buckets[-1][1] += good
            self.buckets[-1][2] += bad
        else:
            self.buckets.append([sec, good, bad])
        self.good += good
        self.bad += bad
        self.prune(now_s)

    def totals(self, now_s: float):
        self.prune(now_s)
        return self.good, self.bad

    def prune(self, now_s: float) -> None:
        floor = int(now_s) - self.window_s
        while self.buckets and self.buckets[0][0] <= floor:
            _, good, bad = self.buckets.popleft()
            self.good -= good
            self.bad -= bad


class _ReferenceSLO:
    """Per-observation window recording and the same evaluation rules."""

    def __init__(self, configs):
        self.configs = configs
        self.windows = {c.name: {w: _ReferenceWindow(w) for w in c.windows()}
                        for c in configs}
        self.observed = {c.name: {"good": 0, "bad": 0} for c in configs}

    def observe(self, kind, latency_ms=None, error=False, staleness=0,
                ts=0.0):
        for cfg in self.configs:
            if cfg.query_kind is not None and cfg.query_kind != kind:
                continue
            if cfg.objective == "availability":
                bad = error
            elif cfg.objective == "latency":
                bad = error or (latency_ms is not None
                                and latency_ms > cfg.threshold_ms)
            else:
                if error:
                    continue
                bad = staleness > cfg.max_staleness
            good_n, bad_n = (0, 1) if bad else (1, 0)
            for counts in self.windows[cfg.name].values():
                counts.record(ts, good_n, bad_n)
            self.observed[cfg.name]["bad" if bad else "good"] += 1

    def evaluate(self, now_s):
        level = 0
        status = {}
        for cfg in self.configs:
            windows = self.windows[cfg.name]
            burn = {}
            for w, counts in windows.items():
                good, bad = counts.totals(now_s)
                total = good + bad
                burn[w] = (bad / total if total else 0.0) / cfg.budget
            fast = (burn[cfg.fast_windows[0]] >= cfg.fast_burn
                    and burn[cfg.fast_windows[1]] >= cfg.fast_burn)
            slow = (burn[cfg.slow_windows[0]] >= cfg.slow_burn
                    and burn[cfg.slow_windows[1]] >= cfg.slow_burn)
            good, bad = windows[cfg.slow_windows[1]].totals(now_s)
            total = good + bad
            remaining = 1.0 - (bad / total if total else 0.0) / cfg.budget
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
                "burn_rate": {_window_label(w): burn[w] for w in sorted(burn)},
                "fast_alert": fast,
                "slow_alert": slow,
                "budget_remaining": remaining,
                "observed": dict(self.observed[cfg.name]),
                "recommended_level": slo_level,
            }
        return level, status


_SHORT = dict(fast_windows=(3, 10), slow_windows=(30, 100))
_CONFIGS = [
    SLOConfig("avail", target=0.9, fast_burn=2.0, slow_burn=1.5, **_SHORT),
    SLOConfig("lat", objective="latency", threshold_ms=5.0, target=0.8,
              fast_burn=1.5, slow_burn=1.2, **_SHORT),
    SLOConfig("knn-stale", objective="staleness", max_staleness=1,
              query_kind="knn", target=0.95, **_SHORT),
    SLOConfig("default-windows", target=0.99),
]

_ts = st.one_of(st.integers(-3, 150).map(float),
                st.floats(-3.0, 150.0, allow_nan=False))
_observe = st.tuples(st.just("observe"), st.sampled_from(["knn", "window"]),
                     st.one_of(st.none(), st.floats(0.0, 10.0)),
                     st.booleans(), st.integers(0, 3), _ts)
_evaluate = st.tuples(st.just("evaluate"), _ts)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(_observe, _observe, _observe, _evaluate),
                max_size=120),
       _ts)
def test_folded_windows_match_per_observation_recording(ops, final):
    """Tallying per second and folding on change (and before reads)
    reports what recording every observation into every window does:
    burn rates, alerts, budgets, observed counts and levels, exactly —
    out-of-order timestamps and interleaved evaluations included."""
    engine = SLOEngine(_CONFIGS, clock=FakeClock(0.0), eval_interval_s=0.0)
    reference = _ReferenceSLO(_CONFIGS)
    for op in ops + [("evaluate", final)]:
        if op[0] == "observe":
            _, kind, latency, error, staleness, ts = op
            engine.observe(kind, latency_ms=latency, error=error,
                           staleness=staleness, ts=ts)
            reference.observe(kind, latency_ms=latency, error=error,
                              staleness=staleness, ts=ts)
        else:
            level, status = reference.evaluate(op[1])
            assert engine.evaluate(op[1]) == level
            assert engine.snapshot()["slos"] == status
