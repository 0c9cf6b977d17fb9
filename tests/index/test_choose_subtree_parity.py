"""Reference parity of the write path.

``RStarTree._choose_subtree`` scores every child of a node in one numpy
pass over the node's cached child-MBR columns, and a leaf's
``recompute_mbr`` takes the min and max of its coordinates.  The
per-child ChooseSubtree and the per-entry ``Rect.from_rects`` they
replaced are kept below as the reference.  Random insert/delete
programs run on a tree with the new ChooseSubtree and on one with the
reference; after every operation both trees have the same levels, page
ids, entry order and MBRs (compared as ``float.hex``, so even the sign
of a zero counts), every MBR equals the per-entry one, and
``check_invariants()`` passes.
"""

import random
import types

import pytest

from repro.geometry import Rect
from repro.index import RStarTree, bulk_load_str
from repro.index.entry import LeafEntry
from repro.index.node import Node, entry_mbr


# ----------------------------------------------------------------------
# the per-child / per-entry reference
# ----------------------------------------------------------------------
def ref_choose_subtree(self, node, mbr):
    children = node.entries
    if node.level == 1:
        best = None
        for child in children:
            enlarged = child.mbr.union(mbr)
            overlap_delta = 0.0
            for other in children:
                if other is child:
                    continue
                overlap_delta += (enlarged.overlap_area(other.mbr)
                                  - child.mbr.overlap_area(other.mbr))
            key = (overlap_delta, child.mbr.enlargement(mbr), child.mbr.area())
            if best is None or key < best[0]:
                best = (key, child)
        return best[1]
    best = None
    for child in children:
        key = (child.mbr.enlargement(mbr), child.mbr.area())
        if best is None or key < best[0]:
            best = (key, child)
    return best[1]


def ref_mbr(node):
    if not node.entries:
        return Rect(0.0, 0.0, 0.0, 0.0)
    return Rect.from_rects([entry_mbr(e) for e in node.entries])


def _hex(rect):
    return tuple(float(v).hex() for v in rect)


def shape(tree):
    """Every node top-down: level, page id, MBR, and its entries (leaf
    points, or child page ids) in order."""
    out = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            body = tuple((e.oid, e.x.hex(), e.y.hex()) for e in node.entries)
        else:
            body = tuple(child.page_id for child in node.entries)
            stack.extend(node.entries)
        out.append((node.level, node.page_id, _hex(node.mbr), body))
    return out


def reference_of(tree):
    """``tree`` with the per-child ChooseSubtree."""
    tree._choose_subtree = types.MethodType(ref_choose_subtree, tree)
    return tree


def _count_calls(tree, name, counts):
    original = getattr(tree, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    setattr(tree, name, counted)


# ----------------------------------------------------------------------
# random programs
# ----------------------------------------------------------------------
def _point(rng, live):
    r = rng.random()
    if live and r < 0.1:
        return rng.choice(list(live.values()))        # duplicate point
    if r < 0.2:
        return rng.choice((0.0, -0.0, 0.5)), rng.random()  # collinear
    if r < 0.25:
        return rng.random(), rng.choice((0.0, -0.0))
    return rng.random(), rng.random()


def _run_program(seed, capacity, ops, start, delete_share=0.3):
    rng = random.Random(seed)
    start_points = [_point(rng, {}) for _ in range(start)]
    trees = []
    for _ in range(2):
        if start:
            trees.append(bulk_load_str(start_points, capacity=capacity))
        else:
            trees.append(RStarTree(capacity=capacity))
    tree, ref = trees[0], reference_of(trees[1])
    counts = {}
    for name in ("_split_node", "_forced_reinsert"):
        _count_calls(tree, name, counts)
    live = dict(enumerate(start_points))
    next_oid = len(start_points)
    counts["height"] = tree.height
    for _ in range(ops):
        if live and rng.random() < delete_share:
            oid = rng.choice(list(live))
            x, y = live.pop(oid)
            assert tree.delete(oid, x, y)
            assert ref.delete(oid, x, y)
        else:
            x, y = _point(rng, live)
            tree.insert(next_oid, x, y)
            ref.insert(next_oid, x, y)
            live[next_oid] = (x, y)
            next_oid += 1
        assert shape(tree) == shape(ref)
        for node in tree.nodes():
            assert _hex(node.mbr) == _hex(ref_mbr(node))
        tree.check_invariants()
        counts["height"] = max(counts["height"], tree.height)
    return counts


@pytest.mark.parametrize("capacity", [4, 8, 16])
@pytest.mark.parametrize("start", [0, 150], ids=["inserted", "str"])
@pytest.mark.parametrize("seed", [1, 2])
def test_small_capacities_build_the_reference_tree(seed, capacity, start):
    counts = _run_program(seed * 31 + capacity, capacity, ops=600,
                          start=start)
    assert counts["height"] >= 3  # ChooseSubtree ran above level 1 too
    assert counts.get("_split_node", 0) > 0
    assert counts.get("_forced_reinsert", 0) > 0


@pytest.mark.parametrize("start,ops", [(0, 1000), (300, 800)],
                         ids=["inserted", "str"])
def test_paper_capacity_builds_the_reference_tree(start, ops):
    """At capacity 204, long enough to overflow leaves: forced
    reinserts and splits run, and ChooseSubtree sees a level 1."""
    counts = _run_program(7 + start, 204, ops=ops, start=start,
                          delete_share=0.1)
    assert counts["height"] >= 2
    assert counts.get("_split_node", 0) > 0
    assert counts.get("_forced_reinsert", 0) > 0


# ----------------------------------------------------------------------
# ties, and what a write charges
# ----------------------------------------------------------------------
def _leaf(page_id, points):
    leaf = Node(level=0, page_id=page_id)
    leaf.entries = [LeafEntry(page_id * 10 + i, x, y)
                    for i, (x, y) in enumerate(points)]
    leaf.recompute_mbr()
    return leaf


def _parent(level, page_id, children):
    node = Node(level=level, page_id=page_id)
    node.entries = list(children)
    node.recompute_mbr()
    return node


@pytest.mark.parametrize("level", [1, 2])
def test_the_first_of_tied_children_wins(level):
    # (1.5, 0.5) enlarges both children by 0.5 without overlapping the
    # other: overlap delta, area delta and area all tie.
    left = _leaf(1, [(0.0, 0.0), (1.0, 1.0)])
    right = _leaf(2, [(2.0, 0.0), (3.0, 1.0)])
    if level == 2:
        left, right = _parent(1, 3, [left]), _parent(1, 4, [right])
    point = Rect(1.5, 0.5, 1.5, 0.5)
    tree = RStarTree(capacity=4)
    ref = reference_of(RStarTree(capacity=4))
    for children in ([left, right], [right, left]):
        node = _parent(level, 9, children)
        assert tree._choose_subtree(node, point) is children[0]
        assert ref._choose_subtree(node, point) is children[0]


def test_overlap_deltas_are_summed_in_child_order():
    """Inserting P = (0, 0) under eight leaves, A (first) and B (fifth)
    tie on area enlargement and area; their exact overlap deltas differ
    by 2**-54.  A's deltas are 0.25 (with F1) and 2**-55 twice (with the
    slivers F2 and F3): left to right each sliver rounds away, so A ties
    B at 0.25 and wins as the first child.  A pairwise sum (ndarray.sum)
    or a compensated one adds the slivers first and gets 0.25 + 2**-54,
    so B would win.  Every other child's enlargement overlaps a block
    (K, K' or B) by more than 0.25."""
    sliver, eps = 2.0 ** -27, 2.0 ** -28          # 2**-27 * 2**-28 = 2**-55
    boxes = [
        ((1.0, -2.0), (3.0, 2.0)),                     # A
        ((0.5, 1.0), (0.75, 10.0)),                    # F1: 0.25 with A + P
        ((0.75, -10.0), (0.75 + sliver, -2.0 + eps)),  # F2: 2**-55
        ((0.5, -10.0), (0.5 + sliver, -2.0 + eps)),    # F3: 2**-55
        ((-3.0, -2.0), (-1.0, 2.0)),                   # B
        ((-0.75, 1.0), (-0.5, 10.0)),                  # G: 0.25 with B + P
        ((-5.0, 5.0), (0.25, 7.0)),                    # K
        ((-5.0, -7.0), (0.25, -5.0)),                  # K'
    ]
    children = [_leaf(i + 1, corners) for i, corners in enumerate(boxes)]
    node = _parent(1, 99, children)
    point = Rect(0.0, 0.0, 0.0, 0.0)
    tree = RStarTree(capacity=8)
    ref = reference_of(RStarTree(capacity=8))
    assert ref._choose_subtree(node, point) is children[0]
    assert tree._choose_subtree(node, point) is children[0]


def test_writes_charge_no_node_access():
    rng = random.Random(3)
    points = [(rng.random(), rng.random()) for _ in range(600)]
    tree = bulk_load_str(points, capacity=8)
    tree.attach_lru_buffer(0.1)
    for i in range(400):
        tree.insert(10_000 + i, rng.random(), rng.random())
        x, y = points[i]
        assert tree.delete(i, x, y)
    assert tree.disk.stats.total_node_accesses == 0
    assert tree.disk.stats.total_page_faults == 0
