"""Unit tests for the columnar geometry kernel.

The ``numpy`` kernel must return brute-force kNN orderings and the
tree search's TPNN influence events (:func:`repro.queries.tp.tp_knn`)
— the service-level equivalence suite (tests/service/) builds on these
guarantees.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.index.bulk import bulk_load_str
from repro.index.entry import LeafEntry
from repro.kernel import ExecutionConfig, PointColumns, available_kernels
from repro.kernel.backends import get_kernel
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
            got = get_kernel("numpy").knn(columns, q[0], q[1], k)
            assert [e.oid for _d2, e in got] == [e.oid for e in expected]
            for d2, e in got:
                assert d2 == pytest.approx(
                    (e.x - q[0]) ** 2 + (e.y - q[1]) ** 2)

    def test_knn_k_at_least_n(self, columns):
        n = len(columns)
        got = get_kernel("numpy").knn(columns, 0.5, 0.5, n + 10)
        assert len(got) == n

    def test_tp_probes_agree_across_kernels(self, columns):
        """Numpy TP probes find the scalar tree search's first event."""
        kernel = get_kernel("numpy")
        tree = bulk_load_str([(e.x, e.y) for e in columns.entries],
                             oids=[e.oid for e in columns.entries])
        rnd = random.Random(7)
        for _ in range(6):
            qx, qy = rnd.random(), rnd.random()
            result = [e for _d2, e in kernel.knn(columns, qx, qy, 4)]
            ctx = kernel.tp_context(columns, qx, qy, result)
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


class TestKernelSelection:
    def test_available_and_resolution_agree(self):
        assert available_kernels() == ("scalar", "numpy")
        assert resolve_kernel_name("auto") == "numpy"
        assert get_kernel("auto").name == "numpy"

    def test_execution_config_resolves(self):
        assert ExecutionConfig(kernel="auto").resolved_kernel() == "numpy"
        assert ExecutionConfig().resolved_kernel() == "scalar"
        for removed in ("soa", "vectorized"):
            with pytest.raises(ValueError):
                ExecutionConfig(kernel=removed)
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
