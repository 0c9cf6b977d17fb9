"""Reference parity of STR bulk loading.

``bulk_load_str`` tiles coordinate columns with stable numpy argsorts
and builds each leaf entry once, already in its leaf's order.  The
entry-by-entry loader it replaced — a ``LeafEntry`` per point in input
order, then ``sorted`` with key functions at every level — is kept
below as the reference.  Both must build the same tree node by node:
the same levels and page ids, MBR sides equal as ``float.hex`` (so the
sign of a zero counts), and the same entries, oids and coordinate bits
in the same order.
"""

import math
import random

import numpy as np
import pytest

from repro.datasets.real_like import make_greece_like, make_north_america_like
from repro.index import RStarTree, bulk_load_str
from repro.index.bulk import _chunk_sizes
from repro.index.entry import LeafEntry
from repro.index.node import Node
from repro.service.shard import ShardedServer
from tests.index.test_choose_subtree_parity import shape

CAPACITIES = (4, 8, 16, None)
FILLS = (0.5, 0.7, 1.0)


# ----------------------------------------------------------------------
# the entry-by-entry reference
# ----------------------------------------------------------------------
def ref_bulk_load(points, capacity=None, fill=0.7, oids=None):
    entries = [
        LeafEntry(i if oids is None else int(oids[i]),
                  float(p[0]), float(p[1]))
        for i, p in enumerate(points)
    ]
    tree = RStarTree(capacity=capacity)
    if not entries:
        return tree
    per_node = _per_node(tree, fill)
    tree.pages.free(tree.root.page_id)
    level = 0
    nodes = ref_pack_level(tree, entries, per_node, level,
                           key_of=lambda e: (e.x, e.y))
    while len(nodes) > 1:
        level += 1
        nodes = ref_pack_level(tree, nodes, per_node, level,
                               key_of=lambda n: n.mbr.center())
    tree.root = nodes[0]
    tree._size = len(entries)
    return tree


def ref_pack_level(tree, items, per_node, level, key_of):
    n = len(items)
    num_nodes = math.ceil(n / per_node)
    num_slices = max(1, math.ceil(math.sqrt(num_nodes)))
    per_slice = math.ceil(n / num_slices)

    items = sorted(items, key=lambda it: key_of(it)[0])
    runs = [items[s:s + per_slice] for s in range(0, n, per_slice)]
    if len(runs) > 1 and len(runs[-1]) < tree.min_fill:
        runs[-2].extend(runs.pop())

    nodes = []
    for run in runs:
        run = sorted(run, key=lambda it: key_of(it)[1])
        start = 0
        for size in _chunk_sizes(len(run), tree.min_fill, per_node,
                                 tree.capacity):
            node = Node(level=level, page_id=tree.pages.allocate())
            node.entries = run[start:start + size]
            node.recompute_mbr()
            nodes.append(node)
            start += size
    return nodes


def _per_node(tree, fill):
    return max(tree.min_fill,
               min(tree.capacity, int(round(tree.capacity * fill))))


# ----------------------------------------------------------------------
# node-by-node comparison
# ----------------------------------------------------------------------
def assert_same_tree(tree, ref):
    assert len(tree) == len(ref)
    assert tree.height == ref.height
    assert tree.num_pages == ref.num_pages
    assert shape(tree) == shape(ref)
    assert all(type(e.oid) is int and type(e.x) is float
               and type(e.y) is float for e in tree.points())


def _tied(n, seed):
    """Duplicates, x and y ties, and both signed zeros."""
    rng = random.Random(seed)
    values = (-0.0, 0.0, -1.0, 0.25, 0.5, 1.0)
    points = []
    for _ in range(n):
        r = rng.random()
        if points and r < 0.15:
            points.append(rng.choice(points))  # a duplicate point
        elif r < 0.45:
            points.append((rng.choice(values), rng.random()))
        elif r < 0.75:
            points.append((rng.random(), rng.choice(values)))
        else:
            points.append((rng.choice(values), rng.choice(values)))
    return points


def _leaf_slice_folds(n, capacity, fill):
    """Whether the leaf level's last x-slice folds into the previous."""
    tree = RStarTree(capacity=capacity)
    per_node = _per_node(tree, fill)
    num_slices = max(1, math.ceil(math.sqrt(math.ceil(n / per_node))))
    starts = range(0, n, math.ceil(n / num_slices))
    return len(starts) > 1 and n - starts[-1] < tree.min_fill


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def datasets():
    return {"NA": make_north_america_like(n=20_000),
            "GR": make_greece_like()}


@pytest.mark.parametrize("name", ["NA", "GR"])
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_real_like_sets_build_the_reference_tree(datasets, name, capacity):
    points = datasets[name]
    for fill in FILLS:
        assert_same_tree(bulk_load_str(points, capacity=capacity, fill=fill),
                         ref_bulk_load(points, capacity=capacity, fill=fill))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_ties_duplicates_and_signed_zeros(seed, capacity):
    points = _tied(3000 if capacity is None else 700, seed)
    for fill in FILLS:
        tree = bulk_load_str(points, capacity=capacity, fill=fill)
        assert_same_tree(tree, ref_bulk_load(points, capacity=capacity,
                                             fill=fill))
        tree.check_invariants()
    # Both zeros reach the tree with their signs.
    signs = {math.copysign(1.0, e.x) for e in tree.points() if e.x == 0.0}
    assert signs == {1.0, -1.0}


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_explicit_oids_as_a_list_and_as_an_array(capacity):
    points = _tied(900, seed=11)
    rng = random.Random(12)
    ids = rng.sample(range(10**6, 10**7), len(points))
    ref = ref_bulk_load(points, capacity=capacity, oids=ids)
    for oids in (ids, np.array(ids, dtype=np.int64)):
        for pts in (points, np.array(points)):
            assert_same_tree(bulk_load_str(pts, capacity=capacity,
                                           oids=oids), ref)


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("fill", FILLS)
def test_small_sizes(capacity, fill):
    """One point, one short of a legal node, and exactly a legal node."""
    min_fill = RStarTree(capacity=capacity).min_fill
    points = _tied(min_fill, seed=5)
    for n in (1, min_fill - 1, min_fill):
        assert_same_tree(
            bulk_load_str(points[:n], capacity=capacity, fill=fill),
            ref_bulk_load(points[:n], capacity=capacity, fill=fill))


@pytest.mark.parametrize("capacity,fill,n", [
    (4, 0.5, 3), (8, 0.5, 5), (16, 0.5, 9), (16, 0.5, 11),
    (None, 0.5, 103), (None, 0.7, 144)])
def test_a_folded_last_slice(capacity, fill, n):
    assert _leaf_slice_folds(n, capacity, fill)
    points = _tied(n, seed=n)
    assert_same_tree(bulk_load_str(points, capacity=capacity, fill=fill),
                     ref_bulk_load(points, capacity=capacity, fill=fill))


def test_every_size_up_to_a_few_levels():
    """Folds and short slices on the upper levels too."""
    points = _tied(400, seed=3)
    for n in range(1, len(points) + 1, 7):
        for fill in FILLS:
            assert_same_tree(bulk_load_str(points[:n], capacity=4, fill=fill),
                             ref_bulk_load(points[:n], capacity=4, fill=fill))


def test_a_sharded_server_from_an_array_equals_one_from_a_list(datasets):
    points = datasets["GR"][:6000]
    from_array = ShardedServer.from_points(points, grid=3, capacity=16)
    from_list = ShardedServer.from_points(points.tolist(), grid=3,
                                          capacity=16)
    assert len(from_array.shards) == len(from_list.shards) > 1
    for a, b in zip(from_array.shards, from_list.shards):
        assert (a.sid, a.cell) == (b.sid, b.cell)
        assert_same_tree(a.server.tree, b.server.tree)
        # Each shard holds its points' global ids, ascending in input
        # order within the cell, as the list-copy loader was given.
        oids = sorted(e.oid for e in a.server.tree.points())
        assert_same_tree(a.server.tree, ref_bulk_load(
            [points[i] for i in oids], capacity=16, oids=oids))
