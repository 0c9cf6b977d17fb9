"""Unit tests for the columnar geometry kernel.

The ``numpy`` kernel must return brute-force kNN orderings and the
tree search's TPNN influence events (:func:`repro.queries.tp.tp_knn`)
— the service-level equivalence suite (tests/service/) builds on these
guarantees.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.index.bulk import bulk_load_str
from repro.index.entry import LeafEntry
from repro.kernel import KERNELS, ExecutionConfig, PointColumns
from repro.kernel.backends import NumpyProbeContext, knn
from repro.kernel.config import resolve_kernel_name
from repro.queries.tp import tp_knn


def _entries(seed: int, n: int = 200):
    rnd = random.Random(seed)
    return [LeafEntry(i, rnd.random(), rnd.random()) for i in range(n)]


@pytest.fixture(scope="module")
def columns():
    return PointColumns(_entries(11))


class TestColumnarKNN:
    def test_knn_matches_brute_force(self, columns):
        entries = columns.entries
        rnd = random.Random(6)
        for _ in range(10):
            q = (rnd.random(), rnd.random())
            k = rnd.randint(1, 8)
            expected = sorted(
                entries,
                key=lambda e: ((e.x - q[0]) ** 2 + (e.y - q[1]) ** 2,
                               e.oid))[:k]
            got = knn(columns, q[0], q[1], k)
            assert [e.oid for _d2, e in got] == [e.oid for e in expected]
            for d2, e in got:
                assert d2 == pytest.approx(
                    (e.x - q[0]) ** 2 + (e.y - q[1]) ** 2)

    def test_knn_k_at_least_n(self, columns):
        n = len(columns)
        got = knn(columns, 0.5, 0.5, n + 10)
        assert len(got) == n

    def test_tp_probes_agree_across_kernels(self, columns):
        """Numpy TP probes find the scalar tree search's first event."""
        tree = bulk_load_str([(e.x, e.y) for e in columns.entries],
                             oids=[e.oid for e in columns.entries])
        rnd = random.Random(7)
        for _ in range(6):
            qx, qy = rnd.random(), rnd.random()
            result = [e for _d2, e in knn(columns, qx, qy, 4)]
            ctx = NumpyProbeContext(columns, qx, qy, result)
            for _ in range(12):
                angle = rnd.uniform(0.0, 2.0 * math.pi)
                v = (math.cos(angle), math.sin(angle))
                expected = tp_knn(tree, (qx, qy), v, result)
                got = ctx.probe(*v)
                assert got.time == pytest.approx(expected.time, abs=1e-9)
                for a, b in ((got.influence, expected.influence),
                             (got.paired_with, expected.paired_with)):
                    assert (a.oid if a else None) == (b.oid if b else None)


class TestPointColumns:
    def test_roundtrips_entries(self):
        entries = _entries(12, n=37)
        cols = PointColumns(entries)
        assert len(cols) == 37
        assert list(cols.oids) == [e.oid for e in entries]
        assert cols.entries[5] is entries[5]

    def test_as_numpy_is_cached(self):
        cols = PointColumns(_entries(13, n=9))
        xs1, ys1, oids1 = cols.as_numpy()
        xs2, _ys2, _oids2 = cols.as_numpy()
        assert xs1 is xs2
        assert len(xs1) == len(ys1) == len(oids1) == 9

    @staticmethod
    def _assert_same(got, expected):
        assert len(got.entries) == len(expected.entries)
        assert all(a is b for a, b in zip(got.entries, expected.entries))
        for column in ("xs", "ys", "oids"):
            a, b = getattr(got, column), getattr(expected, column)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_from_tree_equals_the_entry_walk(self):
        """The snapshot concatenates leaf columns, some cached and some
        dropped by the last mutations, in ``tree.points()`` order."""
        rnd = random.Random(14)
        entries = _entries(14, n=300)
        tree = bulk_load_str([(e.x, e.y) for e in entries], capacity=8,
                             oids=[e.oid for e in entries])
        live = {e.oid: (e.x, e.y) for e in entries}
        for step in range(120):
            if rnd.random() < 0.4:
                oid = rnd.choice(sorted(live))
                assert tree.delete(oid, *live.pop(oid))
            else:
                live[1000 + step] = (rnd.random(), rnd.random())
                tree.insert(1000 + step, *live[1000 + step])
            if step % 3 == 0:
                # Cache some leaves' columns; the next mutations drop
                # a few of them again.
                for node in tree.nodes():
                    if node.is_leaf and rnd.random() < 0.5:
                        node.columns()
            self._assert_same(PointColumns.from_tree(tree),
                              PointColumns(tree.points()))
        for oid, (x, y) in sorted(live.items()):
            assert tree.delete(oid, x, y)
        empty = PointColumns.from_tree(tree)
        assert len(empty) == 0
        self._assert_same(empty, PointColumns(()))

    def test_sharded_snapshot_is_the_shards_in_order(self):
        from repro.service.shard import ShardedServer

        points = [(e.x, e.y) for e in _entries(15, n=400)]
        rnd = random.Random(15)
        with ShardedServer.from_points(
                points, grid=3, capacity=8,
                execution=ExecutionConfig(kernel="numpy")) as server:
            for step in range(60):
                if step % 3 == 2:
                    x, y = points[step]
                    assert server.delete_object(step, x, y)
                else:
                    server.insert_object(5000 + step, rnd.random(),
                                         rnd.random())
                merged = server.dataset_columns()
                walk = PointColumns(
                    e for shard in server.shards if shard.num_points > 0
                    for e in shard.server.tree.points())
                self._assert_same(merged, walk)


class TestKernelSelection:
    def test_available_and_resolution_agree(self):
        assert KERNELS == ("auto", "scalar", "numpy")
        assert [resolve_kernel_name(name) for name in KERNELS] == [
            "numpy", "scalar", "numpy"]

    def test_execution_config_resolves(self):
        assert ExecutionConfig(kernel="auto").resolved_kernel() == "numpy"
        assert ExecutionConfig().resolved_kernel() == "scalar"
        for removed in ("soa", "vectorized"):
            with pytest.raises(ValueError):
                ExecutionConfig(kernel=removed)
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
