"""Per-query I/O accounting reconciles with the disks, phase by phase.

Every node a query reads is charged once, at the disk that served it,
and the service's ``service.node_accesses{phase=}`` /
``service.page_faults{phase=}`` counters are the sum of those charges.
Queries are the only source of reads (R*-tree inserts and deletes read
no nodes), so after :meth:`reset_io_stats` the counters must equal the
server's ``io_stats`` exactly — on a single tree with a buffer, on a
shard fleet, and on a lagging replica set, where answers computed and
then dropped as stale-unserveable, and health probes, land in
``service.replica.discarded_*{phase=}`` instead.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import (
    KNNRequest,
    ProbKNNRequest,
    RangeRequest,
    RKNNRequest,
    WindowRequest,
    build_service,
)
from repro.kernel import ExecutionConfig
from repro.service import CacheConfig, ReplicaConfig

from tests.conftest import UNIT

SCALAR_THREADS = ExecutionConfig(kernel="scalar", workers=2)


def _points(n: int = 400, seed: int = 3):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


def _request(rng: random.Random, location):
    kind = rng.choice(("knn", "knn", "window", "range", "rknn", "probknn"))
    if kind == "knn":
        return KNNRequest(location, k=rng.randint(1, 4))
    if kind == "window":
        return WindowRequest(location, rng.uniform(0.02, 0.2),
                             rng.uniform(0.02, 0.2))
    if kind == "range":
        return RangeRequest(location, rng.uniform(0.02, 0.1))
    if kind == "rknn":
        return RKNNRequest(location, k=rng.randint(1, 2))
    return ProbKNNRequest(location, uncertainty=0.01, k=2)


def _mutations(service, rng: random.Random, response, next_oid):
    """An insert near the query, or a delete of one of its results —
    what makes a lagging replica's answer at the same spot unserveable."""
    members = list(getattr(response, "result", None) or [])
    if members and rng.random() < 0.5:
        victim = rng.choice(members)
        service.delete_object(victim.oid, victim.x, victim.y)
        return next_oid
    x, y = rng.random(), rng.random()
    service.insert_object(next_oid, x, y)
    return next_oid + 1


def _drive(service, seed: int, queries: int, mutate_every: int,
           probe_every: int = 0) -> int:
    """Returns the discarded node accesses the health probes charged
    (exact when no other thread drives ``service`` meanwhile)."""
    rng = random.Random(seed)
    next_oid = 10_000
    probed = 0
    for i in range(queries):
        if probe_every and i % probe_every == 0:
            # A health probe reads replica disks for no query.
            before = _discarded_node_accesses(service)
            service.server.probe_health()
            probed += _discarded_node_accesses(service) - before
        location = (rng.random(), rng.random())
        response = service.answer(_request(rng, location))
        if i % mutate_every == mutate_every - 1:
            next_oid = _mutations(service, rng, response, next_oid)
            # The same spot again, now against a changed dataset.
            service.answer(_request(rng, location))
    return probed


def _discarded_node_accesses(service) -> int:
    return service.metrics.counter_total(
        "service.replica.discarded_node_accesses")


def _assert_reconciles(service) -> None:
    metrics = service.metrics
    stats = service.server.io_stats
    for family, counts in (("node_accesses", stats.node_accesses),
                           ("page_faults", stats.page_faults)):
        assert sum(counts.values()) > 0
        for phase, count in counts.items():
            charged = (
                metrics.counter_total(f"service.{family}", phase=phase)
                + metrics.counter_total(
                    f"service.replica.discarded_{family}", phase=phase))
            assert charged == count, (family, phase)
        # ...and nothing was charged to a phase no disk recorded.
        for name in (f"service.{family}",
                     f"service.replica.discarded_{family}"):
            assert metrics.counter_total(name) == sum(
                metrics.counter_total(name, phase=p) for p in counts)


def _build(kind: str):
    points = _points()
    if kind == "single":
        return build_service(points, universe=UNIT, buffer_fraction=0.1)
    if kind == "threads":
        return build_service(points, universe=UNIT, shards=3,
                             execution=SCALAR_THREADS,
                             cache=CacheConfig(capacity=64))
    return build_service(points, universe=UNIT, shards=2, replicas=2,
                         execution=SCALAR_THREADS,
                         replica=ReplicaConfig(replication_lag=2,
                                               default_max_stale=2))


@pytest.mark.parametrize("kind,queries,mutate_every", [
    ("single", 300, 10),
    ("threads", 300, 10),
    ("replicated", 300, 4),
])
def test_served_reads_add_up_to_io_stats(kind, queries, mutate_every):
    with _build(kind) as service:
        service.server.reset_io_stats()
        probed = _drive(service, seed=11, queries=queries,
                        mutate_every=mutate_every,
                        probe_every=5 if kind == "replicated" else 0)
        _assert_reconciles(service)
        if kind == "replicated":
            # The health probes read nodes that no query owns...
            assert probed > 0
            # ...and, apart from them, the lagging replica computed
            # answers it could not serve.
            assert _discarded_node_accesses(service) - probed > 0


def test_replicated_reads_add_up_under_four_client_threads():
    with _build("replicated") as service:
        service.server.reset_io_stats()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(
                lambda seed: _drive(service, seed=seed, queries=80,
                                    mutate_every=4),
                range(4)))
        _assert_reconciles(service)
