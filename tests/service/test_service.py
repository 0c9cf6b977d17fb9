"""Tests for the instrumented query service and the simulated fleet."""

import json
import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import (
    KNNRequest,
    LocationServer,
    MobileClient,
    RangeRequest,
    WindowRequest,
)
from repro.geometry import Rect
from repro.obs import MetricsRegistry
from repro.service import (
    CacheConfig,
    ClientFleet,
    FleetConfig,
    QueryService,
    build_service,
)

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture()
def service(small_tree):
    return QueryService(LocationServer(small_tree, UNIT))


class TestAnswerParity:
    """The service returns exactly what the bare server returns."""

    def test_knn_matches_server(self, small_tree, service):
        direct = LocationServer(small_tree, UNIT).answer(
            KNNRequest((0.4, 0.4), k=5))
        via = service.answer(KNNRequest((0.4, 0.4), k=5))
        assert [e.oid for e in via.result] == [e.oid for e in direct.result]
        assert via.transfer_bytes() == direct.transfer_bytes()

    def test_window_matches_server(self, small_tree, service):
        direct = LocationServer(small_tree, UNIT).answer(
            WindowRequest((0.5, 0.5), 0.2, 0.2))
        via = service.answer(WindowRequest((0.5, 0.5), 0.2, 0.2))
        assert ({e.oid for e in via.result}
                == {e.oid for e in direct.result})

    def test_range_matches_server(self, small_tree, service):
        direct = LocationServer(small_tree, UNIT).answer(
            RangeRequest((0.5, 0.5), 0.1))
        via = service.answer(RangeRequest((0.5, 0.5), 0.1))
        assert ({e.oid for e in via.result}
                == {e.oid for e in direct.result})


class TestTracing:
    def test_knn_trace_has_all_stages(self, service):
        service.answer(KNNRequest((0.5, 0.5), k=3))
        [trace] = service.recent_traces()
        names = [s.name for s in trace.spans]
        assert "index_descent" in names
        assert "tpnn_probing" in names
        assert "bisector_clipping" in names
        assert "serialization" in names
        assert trace.kind == "knn"
        assert trace.duration_ms > 0
        assert trace.result_size == 3

    def test_trace_node_accesses_match_phase_counters(self, service):
        service.server.reset_io_stats()
        service.answer(WindowRequest((0.5, 0.5), 0.2, 0.2))
        [trace] = service.recent_traces()
        legacy = service.server.io_stats.node_accesses_by_phase()
        assert trace.node_accesses == {
            phase: count for phase, count in legacy.items() if count
        }
        assert trace.total_node_accesses > 0

    def test_trace_id_passthrough(self, service):
        service.answer(RangeRequest((0.5, 0.5), 0.1, trace_id="abc-1"))
        [trace] = service.recent_traces()
        assert trace.trace_id == "abc-1"

    def test_trace_as_dict_is_json_serializable(self, service):
        service.answer(KNNRequest((0.2, 0.8), k=2))
        [trace] = service.recent_traces()
        json.dumps(trace.as_dict())

    def test_trace_buffer_is_bounded(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT),
                           trace_capacity=5)
        for i in range(12):
            svc.answer(RangeRequest((0.5, 0.5), 0.05))
        assert len(svc.recent_traces()) == 5
        assert svc.traces.dropped > 0

    def test_failed_query_is_traced_as_error(self, service):
        class Bogus:
            kind = "bogus"
            trace_id = None

        with pytest.raises(TypeError):
            service.answer(Bogus())
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.errors"] == 1
        assert counters['service.errors{query_kind="bogus"}'] == 1
        [trace] = service.recent_traces()
        assert trace.error is not None and "TypeError" in trace.error

    def test_non_request_object_is_traced_too(self, service):
        """Even a plain string reaches the traced rejection path."""
        with pytest.raises(TypeError):
            service.answer("knn at (0.5, 0.5)")
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.errors"] == 1
        assert counters['service.errors{query_kind="str"}'] == 1
        [trace] = service.recent_traces()
        assert trace.kind == "str" and "TypeError" in trace.error


class TestMetricsConsistency:
    """Single-threaded run: service numbers equal the legacy counters."""

    def test_node_access_counters_match_legacy(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        svc.server.reset_io_stats()
        for x in (0.2, 0.4, 0.6, 0.8):
            svc.answer(KNNRequest((x, x), k=3))
            svc.answer(WindowRequest((x, 1 - x), 0.1, 0.1))
            svc.answer(RangeRequest((1 - x, x), 0.05))
        legacy = svc.server.io_stats.node_accesses_by_phase()
        counters = svc.metrics.snapshot()["counters"]
        for phase, count in legacy.items():
            assert counters[f'service.node_accesses{{phase="{phase}"}}'] \
                == count
        assert counters["service.queries"] == 12
        assert counters['service.queries{query_kind="knn"}'] == 4

    def test_bytes_on_wire_matches_responses(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        total = 0
        for x in (0.3, 0.5, 0.7):
            total += svc.answer(KNNRequest((x, x), k=2)).transfer_bytes()
        counters = svc.metrics.snapshot()["counters"]
        assert counters["service.bytes_on_wire"] == total

    def test_latency_histograms_per_query_type(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        svc.answer(KNNRequest((0.5, 0.5)))
        svc.answer(WindowRequest((0.5, 0.5), 0.1, 0.1))
        for kind in ("knn", "window"):
            h = svc.metrics.histogram_merged("service.latency_ms",
                                             query_kind=kind)
            assert h["count"] == 1
            assert h["p50"] > 0
            assert h["p99"] >= h["p95"] >= h["p50"]


class TestSnapshot:
    def test_snapshot_shape_and_serializability(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        svc.answer(KNNRequest((0.5, 0.5), k=3))
        snap = svc.stats_snapshot()
        json.dumps(snap)
        assert snap["service"]["queries"] == 1
        assert snap["service"]["bytes_on_wire"] > 0
        assert snap["disk"]["total_node_accesses"] > 0
        assert snap["server"]["num_points"] == 1000
        assert ('service.latency_ms{degraded="false",query_kind="knn"}'
                in snap["metrics"]["histograms"])

    def test_buffer_layer_reports_into_snapshot(self, uniform_1k):
        from repro.index import bulk_load_str
        tree = bulk_load_str(uniform_1k, capacity=16)
        tree.attach_lru_buffer(0.5)
        svc = QueryService(LocationServer(tree, UNIT))
        for x in (0.4, 0.41, 0.42):
            svc.answer(KNNRequest((x, 0.5), k=2))
        buf = svc.stats_snapshot()["buffer"]
        assert buf is not None
        assert buf["hits"] + buf["misses"] > 0
        assert 0.0 <= buf["hit_ratio"] <= 1.0

    def test_cache_hit_ratio_from_client_counters(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        client = MobileClient(svc, metrics=svc.metrics)
        client.knn((0.5, 0.5), k=1)
        client.knn((0.5 + 1e-9, 0.5), k=1)  # inside the region: cache hit
        snap = svc.stats_snapshot()
        assert snap["service"]["cache_hit_ratio"] == 0.5


class TestBatchedDispatch:
    def test_batch_preserves_order_and_results(self, small_tree, service):
        requests = [KNNRequest((0.1 * i, 0.1 * i), k=2) for i in range(1, 9)]
        direct = [LocationServer(small_tree, UNIT).answer(r)
                  for r in requests]
        with ThreadPoolExecutor(max_workers=8) as pool:
            batched = service.answer_many(requests, executor=pool)
        for a, b in zip(batched, direct):
            assert [e.oid for e in a.result] == [e.oid for e in b.result]

    def test_batch_metrics(self, service):
        service.answer_many([RangeRequest((0.5, 0.5), 0.05)] * 4)
        counters = service.metrics.snapshot()["counters"]
        assert counters["service.batches"] == 1
        hist = service.metrics.snapshot()["histograms"]["service.batch_size"]
        assert hist["count"] == 1 and hist["max"] == 4


class TestFleet:
    def test_eight_thread_fleet_end_to_end(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        fleet = ClientFleet(svc, FleetConfig(num_clients=12, seed=5,
                                             incremental_share=0.25))
        report = fleet.run(ticks=10, max_workers=8)
        stats = report.stats
        assert stats.position_updates == 120
        assert (stats.cache_answers + stats.server_queries
                == stats.position_updates)
        snap = report.snapshot
        json.dumps(snap)
        counters = snap["metrics"]["counters"]
        assert counters["fleet.ticks"] == 10
        assert counters["client.position_updates"] == 120
        # Client-side and service-side accounting agree.
        assert counters["client.server_queries"] == counters["service.queries"]
        assert counters["client.bytes_received"] == counters[
            "service.bytes_on_wire"]
        assert snap["service"]["cache_hit_ratio"] == pytest.approx(
            stats.cache_answers / stats.position_updates)

    def test_fleet_results_match_single_threaded_rerun(self, small_tree):
        """Concurrency must not change any answer."""
        def run(workers):
            svc = QueryService(LocationServer(small_tree, UNIT))
            fleet = ClientFleet(svc, FleetConfig(num_clients=8, seed=11))
            report = fleet.run(ticks=6, max_workers=workers)
            return report.stats

        eight = run(8)
        one = run(1)
        assert eight.server_queries == one.server_queries
        assert eight.cache_answers == one.cache_answers
        assert eight.bytes_received == one.bytes_received

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_clients=0)
        with pytest.raises(ValueError):
            FleetConfig(knn_share=0.8, window_share=0.4)
        with pytest.raises(ValueError):
            FleetConfig(incremental_share=1.5)

    def test_fleet_mix_covers_all_kinds(self, small_tree):
        svc = QueryService(LocationServer(small_tree, UNIT))
        fleet = ClientFleet(svc, FleetConfig(num_clients=10, seed=1))
        report = fleet.run(ticks=3, max_workers=8)
        assert set(report.mix) == {"knn", "window", "range"}
        assert sum(report.mix.values()) == 10

    def test_updates_through_service_bump_epoch(self):
        from repro.index import bulk_load_str
        tree = bulk_load_str([(0.2, 0.2), (0.8, 0.8), (0.5, 0.9)], capacity=4)
        svc = QueryService(LocationServer(tree, UNIT))
        before = svc.epoch
        svc.insert_object(10_000, 0.123, 0.456)
        assert svc.epoch == before + 1
        assert svc.delete_object(10_000, 0.123, 0.456)
        assert svc.epoch == before + 2


def _trees(server):
    """Every R*-tree behind a server of any shape."""
    servers = ([r.server for r in server.replicas]
               if hasattr(server, "replicas") else [server])
    for s in servers:
        if hasattr(s, "shards"):
            yield from (shard.server.tree for shard in s.shards)
        else:
            yield s.tree


@pytest.mark.parametrize("shape", [{}, {"shards": 2},
                                   {"shards": 2, "replicas": 2},
                                   {"replicas": 2}],
                         ids=["single", "shards", "sharded-replicas",
                              "replicas"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_delete_removes_nothing(shape, bad, axis):
    """No stored point has a NaN or infinite coordinate: every server
    shape answers ``False`` and keeps its epoch and its points."""
    rng = random.Random(4)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    with build_service(points, universe=UNIT, **shape) as service:
        before = (service.server.num_points, service.epoch)
        x, y = (bad, 0.5) if axis == "x" else (0.5, bad)
        assert service.delete_object(5, x, y) is False
        assert (service.server.num_points, service.epoch) == before


@pytest.mark.parametrize("build", [
    lambda points: build_service(points),
    LocationServer.from_points,
    lambda points: build_service(points, shards=2),
    lambda points: build_service(points, replicas=2),
], ids=["service", "server", "shards", "replicas"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_bulk_load_is_refused(build, bad, axis):
    """A bulk load refuses a NaN or infinite point as an insert does,
    on every server shape, instead of indexing it."""
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    points[17] = (bad, 0.5) if axis == "x" else (0.5, bad)
    with pytest.raises(ValueError, match="NaN or infinite"):
        build(points)


@pytest.mark.parametrize("shape", [{}, {"shards": 2},
                                   {"shards": 2, "replicas": 2}],
                         ids=["single", "shards", "replicas"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_insert_changes_nothing(shape, bad, axis):
    rng = random.Random(4)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    with build_service(points, universe=UNIT, cache=CacheConfig(),
                       **shape) as service:
        service.answer(KNNRequest((0.5, 0.5), k=3))

        def state():
            replicas = getattr(service.server, "replicas", ())
            return (service.server.num_points, service.epoch,
                    service.metrics.counter_total("service.updates.insert"),
                    len(service.cache),
                    [len(r.pending) for r in replicas])

        before = state()
        x, y = (bad, 0.5) if axis == "x" else (0.5, bad)
        with pytest.raises(ValueError, match=f"non-finite {axis}"):
            service.insert_object(99_999, x, y)
        assert state() == before
        service.insert_object(99_999, 0.25, 0.75)
        assert service.server.num_points == before[0] + 1
        if shape.get("replicas"):
            service.server.sync()
        for tree in _trees(service.server):
            tree.check_invariants()
