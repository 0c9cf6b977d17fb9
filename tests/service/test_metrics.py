"""Unit tests for the metrics registry primitives."""

import builtins
import json
import threading
from array import array

import pytest

from repro.service import metrics
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_concurrent_increments_all_land(self):
        c = Counter("x")

        def hammer():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 80_000


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("x")
        g.set(3.5)
        g.add(-1.0)
        assert g.value == 2.5


class TestHistogram:
    def test_empty_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["p50"] == 0.0

    def test_moments_are_exact(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.min == 1.0 and h.max == 4.0
        assert h.mean == 2.5

    def test_percentiles_on_known_distribution(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.record(float(v))
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert h.percentile(95) == pytest.approx(95.0, abs=1.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_reservoir_stays_bounded_but_moments_exact(self):
        h = Histogram("lat", max_samples=64)
        for v in range(1000):
            h.record(float(v))
        assert h.count == 1000
        assert h.total == sum(range(1000))
        assert h.max == 999.0
        assert len(h._samples) == 64

    def test_snapshot_has_all_quantile_keys(self):
        h = Histogram("lat")
        h.record(7.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max",
                             "p50", "p95", "p99", "retained_samples"}


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("queries").inc(3)
        reg.gauge("fleet").set(8)
        reg.histogram("latency").record(1.25)
        text = reg.to_json()
        parsed = json.loads(text)
        assert parsed["counters"]["queries"] == 3
        assert parsed["gauges"]["fleet"] == 8.0
        assert parsed["histograms"]["latency"]["count"] == 1

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}

    def test_concurrent_get_or_create(self):
        reg = MetricsRegistry()
        seen = []

        def worker():
            for i in range(200):
                c = reg.counter(f"c{i % 10}")
                c.inc()
            seen.append(True)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(v for v in reg.snapshot()["counters"].values())
        assert total == 8 * 200


class TestLookupMemo:
    def test_any_label_order_hits_the_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("q", labels={"query_kind": "knn", "shard": "1"})
        b = reg.counter("q", labels={"shard": "1", "query_kind": "knn"})
        assert a is b
        h1 = reg.histogram("lat", labels={"k": "v", "d": "false"})
        h2 = reg.histogram("lat", labels={"d": "false", "k": "v"})
        assert h1 is h2
        assert list(reg.snapshot()["counters"]) == [
            'q{query_kind="knn",shard="1"}']

    def test_equal_values_that_render_differently_stay_apart(self):
        # 1, 1.0 and True are one dict key but three label values.
        reg = MetricsRegistry()
        for value in ("1", 1, 1.0, True, 1, "1"):
            reg.counter("c", labels={"v": value}).inc()
        assert reg.snapshot()["counters"] == {
            'c{v="1"}': 4, 'c{v="1.0"}': 1, 'c{v="True"}': 1}

    def test_unhashable_label_values_still_resolve(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"v": [1, 2]}).set(2.0)
        assert reg.gauge("g", labels={"v": [1, 2]}).value == 2.0
        assert reg.snapshot()["gauges"] == {'g{v="[1, 2]"}': 2.0}

    def test_kind_collision_rejected_after_a_memoized_lookup(self):
        reg = MetricsRegistry()
        reg.counter("x", labels={"a": "1"})
        reg.counter("x", labels={"a": "1"})
        with pytest.raises(ValueError):
            reg.histogram("x", labels={"a": "1"})

    def test_reset_forgets_memoized_series(self):
        reg = MetricsRegistry()
        old = reg.counter("x", labels={"a": "1"})
        old.inc()
        reg.reset()
        fresh = reg.counter("x", labels={"a": "1"})
        assert fresh is not old and fresh.value == 0
        reg.reset()
        reg.gauge("x").set(1.0)  # the family may change kind after reset
        assert reg.snapshot()["gauges"] == {"x": 1.0}


_READS = {
    "registry.snapshot": lambda reg, h: reg.snapshot(),
    "registry.histogram_merged": lambda reg, h: reg.histogram_merged("lat"),
    "histogram.snapshot": lambda reg, h: h.snapshot(),
    "histogram.percentile": lambda reg, h: h.percentile(99),
}


@pytest.mark.parametrize("read", sorted(_READS))
def test_reads_sort_reservoirs_off_the_data_lock(monkeypatch, read):
    """A metrics read must not stall the queries updating metrics.

    The quantile step (the reservoir sort) waits for a concurrent
    ``Counter.inc()``; if the read held the registry's data lock while
    sorting, the increment could not land and the wait would time out.
    """
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(1.0, 10.0))
    for v in range(2000):
        h.record(float(v % 50))
    counter = reg.counter("service.queries")
    expected = _READS[read](reg, h)
    landed = threading.Event()
    waits = []
    threads = []

    def sort_waiting_for_an_update(values, *args, **kwargs):
        if isinstance(values, array) and not waits:
            t = threading.Thread(
                target=lambda: (counter.inc(), landed.set()), daemon=True)
            threads.append(t)
            t.start()
            waits.append(landed.wait(timeout=2.0))
        return builtins.sorted(values, *args, **kwargs)

    monkeypatch.setattr(metrics, "sorted", sort_waiting_for_an_update,
                        raising=False)
    result = _READS[read](reg, h)
    for t in threads:
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert waits == [True], "an update blocked behind the reservoir sort"
    assert counter.value == 1
    if read == "registry.snapshot":
        # The increment may land before or after the copy; the
        # histogram part of the read is unchanged either way.
        result, expected = (result["histograms"], expected["histograms"])
    assert result == expected
