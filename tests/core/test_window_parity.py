"""Reference parity of the §4 window path.

``compute_window_validity`` takes its slacks as ``min``/``max`` over the
result's coordinates, drops the window inside the marginal query's leaf
pass, computes each hole's overlap with the inner region once and builds
the exact region on first access.  The per-entry version it replaced is
kept below as the reference (generator slacks, a per-entry marginal
filter, the overlap recomputed as the sort key, an eager
``RectilinearRegion``).  Both sides must return bit-identical answers,
regions and influence lists, and charge identical node accesses and page
faults, phase by phase, through a 3-page LRU buffer.
"""

import math
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core import compute_window_validity
from repro.core.api import QueryBudget
from repro.geometry import Point, Rect, RectilinearRegion
from repro.index import RStarTree, bulk_load_str

_SIDES = ("xmin", "ymin", "xmax", "ymax")


# ----------------------------------------------------------------------
# the per-entry reference
# ----------------------------------------------------------------------
def ref_window_validity(tree, focus, width, height, universe=None,
                        exact_region_hole_cap=1024,
                        empty_window_region_factor=3.0, clock=None):
    if universe is None:
        universe = tree.root.mbr
    focus = Point(float(focus[0]), float(focus[1]))
    universe = universe.extended(focus)
    window = Rect.around(focus, width, height)

    with tree.disk.phase("result"):
        inner = tree.window(window)

    if clock is not None and clock.exhausted():
        point_rect = Rect(focus.x, focus.y, focus.x, focus.y)
        return SimpleNamespace(
            result=inner, inner_influence=[], outer_influence=[],
            inner_region=point_rect, conservative_region=point_rect,
            exact_region=RectilinearRegion(point_rect),
            exact_region_is_lower_bound=True, degraded=True)

    inner_region, side_blockers = ref_inner_validity(
        focus, window, inner, universe, empty_window_region_factor)
    extended = Rect(
        window.xmin - (focus.x - inner_region.xmin),
        window.ymin - (focus.y - inner_region.ymin),
        window.xmax + (inner_region.xmax - focus.x),
        window.ymax + (inner_region.ymax - focus.y),
    )
    with tree.disk.phase("influence"):
        candidates = [e for e in tree.window(extended)
                      if not window.contains_point((e.x, e.y))]

    holes = []
    for e in candidates:
        mink = Rect.around((e.x, e.y), width, height)
        overlap = mink.intersection(inner_region)
        if overlap is not None and overlap.area() > 0.0:
            holes.append((e, mink))

    conservative, cuts = ref_conservative_cut(focus, inner_region, holes)
    inner_influence, outer_influence = ref_attribute_influence(
        conservative, inner_region, side_blockers, cuts)

    capped = len(holes) > exact_region_hole_cap
    if capped:
        exact = RectilinearRegion(conservative)
    else:
        exact = RectilinearRegion(inner_region, [mink for _, mink in holes])
    return SimpleNamespace(
        result=inner, inner_influence=inner_influence,
        outer_influence=outer_influence, inner_region=inner_region,
        conservative_region=conservative, exact_region=exact,
        exact_region_is_lower_bound=capped, degraded=False)


def ref_inner_validity(focus, window, inner, universe, empty_factor):
    if not inner:
        no_blockers = {side: [] for side in _SIDES}
        if math.isinf(empty_factor):
            return universe, no_blockers
        capped = Rect.around(focus, empty_factor * window.width,
                             empty_factor * window.height)
        region = capped.intersection(universe)
        if region is None:
            region = Rect(focus.x, focus.y, focus.x, focus.y)
        return region, no_blockers
    slack_right = min(e.x - window.xmin for e in inner)
    slack_left = min(window.xmax - e.x for e in inner)
    slack_up = min(e.y - window.ymin for e in inner)
    slack_down = min(window.ymax - e.y for e in inner)
    unclipped = Rect(focus.x - slack_left, focus.y - slack_down,
                     focus.x + slack_right, focus.y + slack_up)
    region = unclipped.intersection(universe)
    if region is None:
        region = Rect(focus.x, focus.y, focus.x, focus.y)

    blockers = {side: [] for side in _SIDES}
    if region.xmax == unclipped.xmax:
        blockers["xmax"] = [e for e in inner
                            if e.x - window.xmin == slack_right]
    if region.xmin == unclipped.xmin:
        blockers["xmin"] = [e for e in inner
                            if window.xmax - e.x == slack_left]
    if region.ymax == unclipped.ymax:
        blockers["ymax"] = [e for e in inner
                            if e.y - window.ymin == slack_up]
    if region.ymin == unclipped.ymin:
        blockers["ymin"] = [e for e in inner
                            if window.ymax - e.y == slack_down]
    return region, blockers


def ref_conservative_cut(focus, inner_region, holes):
    region = inner_region
    cuts = []
    norm = inner_region.area() or 1.0

    def _hole_key(hole):
        entry, mink = hole
        return (-round(mink.overlap_area(inner_region) / norm, 9), entry.oid)

    for entry, mink in sorted(holes, key=_hole_key):
        overlap = mink.intersection(region)
        if overlap is None or overlap.area() <= 0.0:
            continue
        candidates = []
        if mink.xmin >= focus.x:
            candidates.append(("xmax", Rect(region.xmin, region.ymin,
                                            mink.xmin, region.ymax)))
        if mink.xmax <= focus.x:
            candidates.append(("xmin", Rect(mink.xmax, region.ymin,
                                            region.xmax, region.ymax)))
        if mink.ymin >= focus.y:
            candidates.append(("ymax", Rect(region.xmin, region.ymin,
                                            region.xmax, mink.ymin)))
        if mink.ymax <= focus.y:
            candidates.append(("ymin", Rect(region.xmin, mink.ymax,
                                            region.xmax, region.ymax)))
        side, region = max(
            candidates,
            key=lambda c: (round(c[1].area() / norm, 9),
                           -_SIDES.index(c[0])))
        cuts.append((entry, side, getattr(region, side)))
    return region, cuts


def ref_attribute_influence(final, inner_region, side_blockers, cuts):
    outer, inner = [], []
    seen_outer, seen_inner = set(), set()
    for side in _SIDES:
        value = getattr(final, side)
        cut_entries = [e for e, s, v in cuts if s == side and v == value]
        if cut_entries:
            for e in cut_entries:
                if e.oid not in seen_outer:
                    seen_outer.add(e.oid)
                    outer.append(e)
        elif value == getattr(inner_region, side):
            for e in side_blockers[side]:
                if e.oid not in seen_inner:
                    seen_inner.add(e.oid)
                    inner.append(e)
    return inner, outer


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def datasets(draw):
    """(kind, points): uniform or clustered data at unit or continental
    scale, duplicated points, or an integer lattice (several blockers
    per side, Minkowski holes of tied area)."""
    kind = draw(st.sampled_from(["uniform", "clustered", "duplicates",
                                 "lattice"]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 300))
    scale = draw(st.sampled_from([1.0, 7e6]))
    if kind == "uniform":
        points = [(scale * rnd.random(), scale * rnd.random())
                  for _ in range(n)]
    elif kind == "clustered":
        centers = [(rnd.random(), rnd.random()) for _ in range(3)]
        points = []
        for _ in range(n):
            cx, cy = rnd.choice(centers)
            points.append((scale * (cx + rnd.gauss(0.0, 0.01)),
                           scale * (cy + rnd.gauss(0.0, 0.01))))
    elif kind == "duplicates":
        distinct = [(scale * rnd.random(), scale * rnd.random())
                    for _ in range(n // 6)]
        points = [rnd.choice(distinct) for _ in range(n)]
    else:
        side = math.isqrt(n)
        points = [(float(i), float(j))
                  for i in range(side) for j in range(side)]
        rnd.shuffle(points)
    return kind, points


def build(points, capacity, bulk):
    if bulk:
        tree = bulk_load_str(points, capacity=capacity)
    else:
        tree = RStarTree(capacity=capacity)
        tree.extend(points)
    tree.disk.set_buffer(3)
    return tree


def make_queries(rnd, kind, points, universe):
    """Window queries as ``(focus, width, height, kwargs)``."""
    span = max(universe.width, universe.height)
    queries = []
    for _ in range(8):
        kwargs = {}
        roll = rnd.random()
        if kind == "lattice" and roll < 0.3:
            # Integer extents on lattice or half-lattice foci: edges
            # through rows of points, several blockers per side.
            x, y = rnd.choice(points)
            focus = (x + rnd.choice([0.0, 0.5]), y + rnd.choice([0.0, 0.5]))
            w, h = float(rnd.randint(1, 4)), float(rnd.randint(1, 4))
        elif roll < 0.45:
            # Window edges through two data points.
            (x1, y1), (x2, y2) = rnd.sample(points, 2)
            focus = ((x1 + x2) / 2.0, (y1 + y2) / 2.0)
            w = abs(x1 - x2) or span * 0.05
            h = abs(y1 - y2) or span * 0.05
        elif roll < 0.55:
            # A focus outside the universe.
            focus = (universe.xmax + rnd.uniform(0.0, 0.3) * span,
                     universe.ymin - rnd.uniform(0.0, 0.3) * span)
            w = h = rnd.uniform(0.05, 0.5) * span
        elif roll < 0.65:
            # A window too small to hold a point: the capped inner region.
            focus = (rnd.uniform(universe.xmin, universe.xmax),
                     rnd.uniform(universe.ymin, universe.ymax))
            w = h = span * 1e-6
        else:
            focus = rnd.choice(points) if rnd.random() < 0.3 else (
                rnd.uniform(universe.xmin, universe.xmax),
                rnd.uniform(universe.ymin, universe.ymax))
            w = rnd.uniform(0.01, 0.4) * span
            h = rnd.uniform(0.01, 0.4) * span
        roll = rnd.random()
        if roll < 0.15:
            kwargs["exact_region_hole_cap"] = 0
        elif roll < 0.25:
            kwargs["empty_window_region_factor"] = math.inf
        if rnd.random() < 0.3:
            kwargs["universe"] = universe
        queries.append((focus, w, h, kwargs, rnd.random() < 0.1))
    return queries


def hexes(values):
    return [v.hex() for v in values]


def fingerprint(res):
    """Everything the two sides must agree on, floats bit for bit."""
    exact = res.exact_region
    return (
        [e.oid for e in res.result],
        [e.oid for e in res.inner_influence],
        [e.oid for e in res.outer_influence],
        hexes(res.inner_region),
        hexes(res.conservative_region),
        exact.area().hex(),
        [hexes(h) for h in exact.holes],
        res.exact_region_is_lower_bound,
        res.degraded,
    )


def run_queries(tree, queries, fn):
    tree.disk.cold_restart()
    answers = []
    for focus, w, h, kwargs, exhausted in queries:
        clock = QueryBudget(deadline_ms=0.0).start() if exhausted else None
        answers.append(fingerprint(fn(tree, focus, w, h, clock=clock,
                                      **kwargs)))
    stats = tree.disk.stats
    return answers, dict(stats.node_accesses), dict(stats.page_faults)


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------
@given(datasets(), st.integers(4, 64), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_window_path_matches_per_entry_reference(data, capacity, bulk, seed):
    kind, points = data
    tree = build(points, capacity, bulk)
    queries = make_queries(random.Random(seed), kind, points, tree.root.mbr)
    want = run_queries(tree, queries, ref_window_validity)
    got = run_queries(tree, queries, compute_window_validity)
    for query, a, b in zip(queries, want[0], got[0]):
        assert b == a, query
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_exact_region_is_built_on_first_access():
    points = [(float(i), float(j)) for i in range(12) for j in range(12)]
    tree = build(points, 8, bulk=True)
    res = compute_window_validity(tree, (5.5, 5.5), 2.0, 2.0)
    assert res._exact_region is None
    region = res.exact_region
    assert res.exact_region is region
    assert region.base == res.inner_region
    assert region.contains(res.focus)
