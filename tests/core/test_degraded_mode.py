"""Degraded responses under query budgets, and the client's stale fallback.

The resilience contract: a budget-exhausted query still returns the
*exact* result — only the validity region shrinks (conservatively), and
the response is flagged via ``detail.degraded``.  A client facing a
transiently failing server serves its cached answer within a bounded
staleness instead of raising.
"""

from __future__ import annotations

import math

import pytest

from repro.core import LocationServer, MobileClient
from repro.core.api import KNNRequest, QueryBudget, RangeRequest, WindowRequest
from repro.core.validity import ValidityDisk
from repro.storage import FaultPlan, inject_faults

from tests.conftest import brute_knn_set, brute_window

from repro.geometry import Rect


TIGHT = QueryBudget(max_node_accesses=1)


def test_budget_validation():
    with pytest.raises(ValueError):
        QueryBudget(deadline_ms=-1.0)
    with pytest.raises(ValueError):
        QueryBudget(max_node_accesses=-1)
    assert QueryBudget().unlimited
    assert not TIGHT.unlimited


# ----------------------------------------------------------------------
# kNN
# ----------------------------------------------------------------------
def test_degraded_knn_keeps_exact_result(uniform_1k, small_tree):
    server = LocationServer(small_tree)
    q = (0.41, 0.57)
    full = server.answer(KNNRequest(q, k=5))
    degraded = server.answer(KNNRequest(q, k=5, budget=TIGHT))
    assert degraded.detail.degraded
    assert not full.detail.degraded
    assert ({e.oid for e in degraded.result}
            == {e.oid for e in full.result})

    region = degraded.region
    assert isinstance(region, ValidityDisk)
    assert region.contains(q)
    # The safe disk must sit inside the true validity region: wherever
    # it admits a cache answer, the full region would have too.
    for angle in range(8):
        p = (q[0] + 0.999 * region.radius * math.cos(angle * math.pi / 4),
             q[1] + 0.999 * region.radius * math.sin(angle * math.pi / 4))
        assert full.region.contains(p)


def test_degraded_knn_safe_radius_is_half_margin(uniform_1k, small_tree):
    server = LocationServer(small_tree)
    q = (0.3, 0.3)
    degraded = server.answer(KNNRequest(q, k=3, budget=TIGHT))
    ranked = sorted(math.dist(p, q) for p in uniform_1k)
    expected = (ranked[3] - ranked[2]) / 2.0
    assert degraded.detail.safe_radius == pytest.approx(expected)
    assert degraded.region.radius == pytest.approx(expected)


def test_degraded_knn_set_invariant_inside_safe_disk(uniform_1k, small_tree):
    server = LocationServer(small_tree)
    q = (0.62, 0.48)
    k = 4
    degraded = server.answer(KNNRequest(q, k=k, budget=TIGHT))
    knn_at_q = brute_knn_set(uniform_1k, q, k)
    r = degraded.region.radius
    for i in range(12):
        angle = i * math.pi / 6
        p = (q[0] + 0.98 * r * math.cos(angle),
             q[1] + 0.98 * r * math.sin(angle))
        assert brute_knn_set(uniform_1k, p, k) == knn_at_q


def test_generous_budget_is_not_degraded(small_tree):
    server = LocationServer(small_tree)
    resp = server.answer(KNNRequest(
        (0.5, 0.5), k=3,
        budget=QueryBudget(max_node_accesses=10_000_000,
                           deadline_ms=60_000.0)))
    assert not resp.detail.degraded
    assert resp.detail.safe_radius is None


# ----------------------------------------------------------------------
# window / range
# ----------------------------------------------------------------------
def test_degraded_window_keeps_exact_result(uniform_1k, small_tree):
    server = LocationServer(small_tree)
    focus, w, h = (0.5, 0.5), 0.2, 0.15
    full = server.answer(WindowRequest(focus, w, h))
    degraded = server.answer(WindowRequest(focus, w, h, budget=TIGHT))
    assert degraded.detail.degraded
    assert ({e.oid for e in degraded.result} == {e.oid for e in full.result})
    expected = brute_window(
        uniform_1k, Rect(focus[0] - w / 2, focus[1] - h / 2,
                         focus[0] + w / 2, focus[1] + h / 2))
    assert sorted(e.oid for e in degraded.result) == expected
    # The degraded region collapses to the focus point — sound, tiny.
    assert degraded.region.contains(focus)
    assert degraded.detail.conservative_region.area() == 0.0


def test_degraded_range_keeps_exact_result(small_tree):
    server = LocationServer(small_tree)
    q, radius = (0.44, 0.52), 0.1
    full = server.answer(RangeRequest(q, radius))
    degraded = server.answer(RangeRequest(q, radius, budget=TIGHT))
    assert degraded.detail.degraded
    assert ({e.oid for e in degraded.result} == {e.oid for e in full.result})
    assert degraded.detail.validity_radius == 0.0
    assert degraded.region.contains(q)


def test_detail_attribute_access(small_tree):
    server = LocationServer(small_tree)
    detail = server.answer(KNNRequest((0.5, 0.5), k=2)).detail
    assert detail.degraded is False
    assert detail.kind == "knn"
    with pytest.raises(AttributeError):
        detail.no_such_key


def test_budget_threads_through_answer_entry_point(small_tree):
    server = LocationServer(small_tree)
    assert server.answer(
        KNNRequest((0.5, 0.5), k=3, budget=TIGHT)).detail.degraded
    assert server.answer(
        WindowRequest((0.5, 0.5), 0.2, 0.2, budget=TIGHT)).detail.degraded
    assert server.answer(
        RangeRequest((0.5, 0.5), 0.1, budget=TIGHT)).detail.degraded


# ----------------------------------------------------------------------
# client stale fallback
# ----------------------------------------------------------------------
def _failing_server(uniform_1k):
    server = LocationServer.from_points(uniform_1k)
    return server


def test_client_falls_back_to_stale_cache(uniform_1k):
    server = _failing_server(uniform_1k)
    client = MobileClient(server, max_stale=2)
    q = (0.5, 0.5)
    fresh = client.knn(q, k=3)
    assert client.last_served == "server"
    # Now the disk dies completely; the position moved out of the region.
    inject_faults(server.tree, FaultPlan(read_failure_rate=1.0))
    far = (0.9, 0.1)
    stale = client.knn(far, k=3)
    assert client.last_served == "stale"
    assert client.last_staleness == 0
    assert client.stats.stale_answers == 1
    assert {e.oid for e in stale} == {e.oid for e in fresh}


def test_client_stale_bound_is_enforced(uniform_1k):
    server = _failing_server(uniform_1k)
    client = MobileClient(server, max_stale=1)
    client.knn((0.5, 0.5), k=3)
    # Two dataset updates: the cache is now 2 epochs stale — too stale.
    server.insert_object(10_001, 0.01, 0.01)
    server.insert_object(10_002, 0.02, 0.02)
    inject_faults(server.tree, FaultPlan(read_failure_rate=1.0))
    from repro.storage import PageReadError
    with pytest.raises(PageReadError):
        client.knn((0.9, 0.1), k=3)


def test_client_without_fallback_raises(uniform_1k):
    server = _failing_server(uniform_1k)
    client = MobileClient(server)  # max_stale=None: fail fast
    client.knn((0.5, 0.5), k=3)
    inject_faults(server.tree, FaultPlan(read_failure_rate=1.0))
    from repro.storage import PageReadError
    with pytest.raises(PageReadError):
        client.knn((0.9, 0.1), k=3)


def test_client_does_not_mask_non_transient_errors(uniform_1k):
    server = _failing_server(uniform_1k)
    client = MobileClient(server, max_stale=5)
    client.knn((0.5, 0.5), k=3)

    def boom(request):
        raise ValueError("a bug, not an outage")

    server.answer = boom
    with pytest.raises(ValueError):
        client.knn((0.9, 0.1), k=3)


def test_client_recovers_after_disk_heals(uniform_1k):
    server = _failing_server(uniform_1k)
    client = MobileClient(server, max_stale=3)
    client.knn((0.5, 0.5), k=3)
    faulty = inject_faults(server.tree, FaultPlan(read_failure_rate=1.0))
    client.knn((0.9, 0.1), k=3)
    assert client.last_served == "stale"
    server.tree.disk = faulty.replaced  # the disk heals
    healed = client.knn((0.9, 0.1), k=3)
    assert client.last_served in ("server", "cache")
    from tests.conftest import brute_knn_set
    assert {e.oid for e in healed} == brute_knn_set(uniform_1k, (0.9, 0.1), 3)
