"""Resource lifecycle tests: close is idempotent at every layer.

:class:`ShardedServer` builds its fan-out thread pool on the first
query that scatters; these tests pin the double-close no-op and the
context-manager form, then walk the same guarantees up through
:class:`ReplicaSet` and :class:`QueryService`.
"""

from __future__ import annotations

import random

from repro.core.api import KNNRequest, WindowRequest
from repro.geometry import Rect
from repro.kernel import ExecutionConfig
from repro.service import QueryService, ReplicaConfig, ReplicaSet
from repro.service.shard import ShardedServer

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def _points(n=200, seed=3):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


# ----------------------------------------------------------------------
# ShardedServer
# ----------------------------------------------------------------------
def test_sharded_double_close_is_noop_thread_backend():
    server = ShardedServer.from_points(_points(), universe=UNIT)
    server.answer(KNNRequest((0.5, 0.5), k=2))
    server.close()
    server.close()


def test_sharded_context_manager_closes():
    with ShardedServer.from_points(
            _points(), universe=UNIT,
            execution=ExecutionConfig(workers=2)) as server:
        server.answer(WindowRequest((0.5, 0.5), 0.6, 0.6))
        assert server._pool is not None  # the scatter built the pool
    assert server._pool is None
    server.close()  # close after __exit__ is a no-op


def test_close_before_any_query_is_noop():
    server = ShardedServer.from_points(_points(), universe=UNIT)
    server.close()  # no pool was ever built


# ----------------------------------------------------------------------
# ReplicaSet and QueryService
# ----------------------------------------------------------------------
def test_replica_set_close_cascades_and_is_idempotent():
    rs = ReplicaSet.from_points(_points(), replicas=2, shards=2,
                                universe=UNIT,
                                execution=ExecutionConfig(),
                                config=ReplicaConfig())
    rs.answer(KNNRequest((0.5, 0.5), k=2))
    rs.close()
    rs.close()
    for rep in rs.replicas:
        assert rep.server._pool is None


def test_query_service_close_reaches_the_bottom():
    rs = ReplicaSet.from_points(_points(), replicas=2, universe=UNIT,
                                config=ReplicaConfig())
    with QueryService(rs) as service:
        service.answer(KNNRequest((0.5, 0.5), k=2))
    service.close()  # second close after __exit__ is a no-op


def test_query_service_close_without_closable_server():
    from repro.core.server import LocationServer

    service = QueryService(LocationServer.from_points(_points(),
                                                      universe=UNIT))
    service.close()  # LocationServer has no close(); still a no-op
    service.close()
