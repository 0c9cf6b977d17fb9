"""Unit tests for the replicated serving tier (:mod:`repro.service.replica`).

Covers consistent-hash routing affinity, transparent failover, the
deterministic breaker ejection/recovery sequence (fake clock), staleness
bounds (skips, stale-served annotations, unserveable failover), mutation
replication and the sync barrier, and the QueryService composition.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import KNNRequest, RangeRequest, WindowRequest
from repro.geometry import Rect
from repro.service import (
    BreakerConfig,
    QueryService,
    ReplicaConfig,
    ReplicaSet,
    ServedResponse,
)
from repro.service.replica import NoReplicaAvailableError, ReplicaDownError

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(scope="module")
def points():
    rng = random.Random(7)
    return [(rng.random(), rng.random()) for _ in range(300)]


def make_set(points, *, replicas=3, lag=0, max_stale=None, clock=None,
             breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=5.0)):
    cfg = ReplicaConfig(replication_lag=lag, default_max_stale=max_stale,
                        breaker=breaker)
    return ReplicaSet.from_points(points, replicas=replicas, universe=UNIT,
                                  config=cfg, clock=clock)


def affine_rid(rs, request) -> int:
    """The replica consistent hashing prefers for this request."""
    return rs._candidates(request)[0].rid


def request_for_rid(rs, rid, k=2):
    """A kNN request whose affinity lands on replica ``rid``."""
    rng = random.Random(0)
    for _ in range(500):
        req = KNNRequest((rng.random(), rng.random()), k=k)
        if affine_rid(rs, req) == rid:
            return req
    raise AssertionError(f"no location routed to replica {rid}")


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_affinity_is_sticky(points):
    rs = make_set(points)
    req = KNNRequest((0.41, 0.63), k=3)
    rids = {rs.answer(req).replica_id for _ in range(5)}
    assert len(rids) == 1  # same location keeps hitting the same replica


def test_routing_spreads_across_replicas(points):
    rs = make_set(points)
    rng = random.Random(3)
    rids = {rs.answer(KNNRequest((rng.random(), rng.random()))).replica_id
            for _ in range(60)}
    assert rids == {0, 1, 2}


def test_answer_is_annotated(points):
    rs = make_set(points)
    resp = rs.answer(KNNRequest((0.5, 0.5), k=2))
    assert isinstance(resp, ServedResponse)
    assert resp.staleness == 0
    assert resp.failovers == 0
    assert resp.epoch == rs.epoch
    assert resp.valid_for_epoch == rs.epoch
    assert len(resp.result) == 2
    assert resp.region.contains((0.5, 0.5))


# ----------------------------------------------------------------------
# failover and the ejection/recovery sequence
# ----------------------------------------------------------------------
def test_failover_on_killed_replica(points):
    rs = make_set(points)
    req = KNNRequest((0.3, 0.7), k=2)
    victim = affine_rid(rs, req)
    fresh = rs.answer(req)
    rs.kill(victim)
    resp = rs.answer(req)
    assert resp.replica_id != victim
    assert resp.failovers == 1
    assert {e.oid for e in resp.result} == {e.oid for e in fresh.result}
    assert rs.failovers >= 1


def test_breaker_ejects_then_recovers_deterministically(points):
    clock = FakeClock()
    rs = make_set(points, clock=clock,
                  breaker=BreakerConfig(failure_threshold=2,
                                        reset_timeout_s=5.0))
    req = KNNRequest((0.3, 0.7), k=2)
    victim = affine_rid(rs, req)
    rs.kill(victim)

    # Two failing attempts trip the victim's breaker (threshold=2),
    # each one failing over to a healthy replica mid-flight.
    for _ in range(2):
        assert rs.answer(req).replica_id != victim
    assert rs.replicas[victim].state == "down"
    assert rs.replicas[victim].breaker.state == "open"
    assert rs.failovers == 2

    # Ejected: requests now skip the victim without attempting it.
    before = rs.failovers
    resp = rs.answer(req)
    assert resp.replica_id != victim and resp.failovers == 0
    assert rs.failovers == before
    assert rs.ejected_skips >= 1

    # Recovery: revive, pass the reset timeout, health-probe half-open.
    rs.revive(victim)
    clock.advance(5.1)
    assert rs.replicas[victim].state == "half_open"
    rows = rs.probe_health()
    assert rows[victim]["status"] == "ok"
    assert rs.replicas[victim].state == "closed"
    assert rs.answer(req).replica_id == victim


def test_probe_health_reports_dead_replica(points):
    rs = make_set(points)
    rs.kill(2)
    rows = rs.probe_health()
    assert rows[2]["status"] == "failed"
    assert rows[2]["alive"] is False
    # Repeated probes alone eject it, without user traffic.
    rs.probe_health()
    assert rs.replicas[2].breaker.state == "open"


def test_all_replicas_dead_raises_transient(points):
    rs = make_set(points, replicas=2, breaker=None)
    rs.kill(0)
    rs.kill(1)
    with pytest.raises(Exception) as exc_info:
        rs.answer(KNNRequest((0.5, 0.5)))
    assert getattr(exc_info.value, "transient", False)


# ----------------------------------------------------------------------
# staleness bounds
# ----------------------------------------------------------------------
def test_fresh_default_skips_lagging_replica(points):
    rs = make_set(points, replicas=2, lag=10)
    rs.insert_object(9001, 0.91, 0.91)
    rs.insert_object(9002, 0.93, 0.93)
    assert rs.replicas[1].staleness == 2
    req = request_for_rid(rs, 1)  # affine to the lagging replica
    resp = rs.answer(req)  # no max_stale anywhere -> fresh reads only
    assert resp.replica_id == 0
    assert resp.staleness == 0
    assert rs.stale_skips >= 1


def test_stale_served_with_shrunk_region(points):
    rs = make_set(points, replicas=2, lag=10)
    rs.insert_object(9001, 0.91, 0.91)
    req = request_for_rid(rs, 1)
    resp = rs.answer(req.__class__(req.location, k=req.k, max_stale=5))
    if resp.replica_id == 1:
        assert resp.staleness == 1
        assert resp.valid_for_epoch == rs.epoch
        assert resp.region.contains(req.location)
        assert rs.stale_served == 1


def test_unserveable_stale_fails_over_to_primary(points):
    rs = make_set(points, replicas=2, lag=10)
    # Insert right where we will query: the lagging replica cannot
    # serve any range answer around it, whatever the shrink.
    rs.insert_object(9001, 0.505, 0.505)
    req = RangeRequest((0.5, 0.5), 0.1, max_stale=5)
    target = affine_rid(rs, req)
    resp = rs.answer(req)
    assert resp.replica_id == 0
    assert resp.staleness == 0
    assert 9001 in {e.oid for e in resp.result}
    if target == 1:
        assert rs.unserveable_stale == 1


def test_window_query_replicated(points):
    rs = make_set(points, replicas=3)
    resp = rs.answer(WindowRequest((0.5, 0.5), 0.2, 0.2))
    assert resp.region.contains((0.5, 0.5))


# ----------------------------------------------------------------------
# replication mechanics
# ----------------------------------------------------------------------
def test_synchronous_replication_by_default(points):
    rs = make_set(points, replicas=3, lag=0)
    rs.insert_object(9001, 0.2, 0.2)
    assert [r.staleness for r in rs.replicas] == [0, 0, 0]
    assert len({r.server.epoch for r in rs.replicas}) == 1
    assert len({r.server.num_points for r in rs.replicas}) == 1


def test_sync_drains_backlogs(points):
    rs = make_set(points, replicas=2, lag=10)
    rs.insert_object(9001, 0.2, 0.2)
    assert rs.delete_object(9001, 0.2, 0.2) is True
    assert rs.replicas[1].staleness == 2
    rs.sync()
    assert rs.replicas[1].staleness == 0
    assert rs.replicas[1].server.epoch == rs.epoch


def test_noop_delete_is_not_replicated(points):
    rs = make_set(points, replicas=2, lag=10)
    assert rs.delete_object(424242, 0.5, 0.5) is False
    assert rs.replicas[1].staleness == 0  # epoch alignment preserved


def test_killed_replica_accrues_backlog_and_revive_catches_up(points):
    rs = make_set(points, replicas=2, lag=0)
    rs.kill(1)
    rs.insert_object(9001, 0.2, 0.2)
    assert rs.replicas[1].staleness == 1  # not applied while dead
    rs.revive(1)
    assert rs.replicas[1].staleness == 0
    assert rs.replicas[1].server.epoch == rs.epoch


# ----------------------------------------------------------------------
# QueryService composition
# ----------------------------------------------------------------------
def test_query_service_over_replica_set(points):
    rs = make_set(points)
    service = QueryService(rs)
    resp = service.answer(KNNRequest((0.5, 0.5), k=2))
    assert isinstance(resp, ServedResponse)
    snap = service.stats_snapshot()
    assert len(snap["replica_set"]["replicas"]) == 3
    counters = service.metrics.snapshot()["counters"]
    rid = resp.replica_id
    assert counters[f'service.replica.queries{{replica="{rid}"}}'] == 1
    service.close()
    service.close()  # idempotent through every layer


def test_query_service_failover_metrics(points):
    rs = make_set(points)
    service = QueryService(rs)
    req = KNNRequest((0.3, 0.7), k=2)
    rs.kill(affine_rid(rs, req))
    service.answer(req)
    counters = service.metrics.snapshot()["counters"]
    assert counters["service.replica.failovers"] == 1


def test_failover_total_is_the_sum_of_its_replica_series(points):
    """Every failover counts once in the total and once against the
    replica that failed, served or not."""
    rs = make_set(points, breaker=None)
    service = QueryService(rs)
    rng = random.Random(11)
    rs.kill(1)
    rs.kill(2)
    for _ in range(40):
        service.answer(KNNRequest((rng.random(), rng.random()), k=2))
    rs.kill(0)
    for _ in range(10):
        with pytest.raises(ReplicaDownError):
            service.answer(KNNRequest((rng.random(), rng.random()), k=2))
    counters = service.metrics.snapshot()["counters"]
    labelled = sum(v for key, v in counters.items()
                   if key.startswith("service.replica.failovers{"))
    assert counters["service.replica.failovers"] == labelled == rs.failovers
    assert rs.failovers > 40


def test_routing_knobs_are_module_constants():
    from repro.service import replica

    assert (replica.VIRTUAL_NODES, replica.AFFINITY_GRID) == (32, 64)
    for removed in ("virtual_nodes", "affinity_grid", "probe_k"):
        with pytest.raises(TypeError):
            ReplicaConfig(**{removed: 1})


def test_replica_set_context_manager(points):
    with make_set(points, replicas=2) as rs:
        rs.answer(KNNRequest((0.5, 0.5)))
    rs.close()  # second close after __exit__ is a no-op


def test_no_replica_available_error_is_transient():
    assert NoReplicaAvailableError("x").transient is True
