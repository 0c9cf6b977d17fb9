"""Adversarial property tests for the conservative window cut.

``_conservative_cut`` must, for any hole pattern: keep the focus
inside, stay within the inner region, and clear every hole.  Holes here
are synthesized directly (not via datasets), so patterns impossible
under the real geometry are exercised too — the function's contract
only requires that the focus is in no hole's interior.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.core.window_validity import _conservative_cut
from repro.geometry import Point

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cut_instances(draw):
    fx, fy = draw(unit), draw(unit)
    x1, x2 = sorted((draw(unit), draw(unit)))
    y1, y2 = sorted((draw(unit), draw(unit)))
    inner = Rect(min(x1, fx), min(y1, fy), max(x2, fx), max(y2, fy))
    n = draw(st.integers(min_value=0, max_value=8))
    holes = []
    for i in range(n):
        hx1, hx2 = sorted((draw(unit), draw(unit)))
        hy1, hy2 = sorted((draw(unit), draw(unit)))
        hole = Rect(hx1, hy1, hx2, hy2)
        # Contract: the focus is never strictly inside a hole.
        if hole.contains_point_open((fx, fy)):
            continue
        holes.append((LeafEntry(i, (hx1 + hx2) / 2, (hy1 + hy2) / 2), hole,
                      hole.overlap_area(inner)))
    return Point(fx, fy), inner, holes


class TestConservativeCutProperties:
    @given(cut_instances())
    @settings(deadline=None, max_examples=200)
    def test_invariants(self, instance):
        focus, inner, holes = instance
        final, cuts = _conservative_cut(focus, inner, holes)
        # 1. The focus stays inside (closed) the final rectangle.
        assert final.contains_point(focus, eps=1e-12)
        # 2. The final rectangle is within the inner region.
        assert inner.contains_rect(final)
        # 3. No hole overlaps the final rectangle's interior.
        for _, hole, _ in holes:
            assert final.overlap_area(hole) <= 1e-12
        # 4. Every recorded cut names a hole from the input.
        input_oids = {e.oid for e, _, _ in holes}
        assert all(e.oid in input_oids for e, _, _ in cuts)

    @given(cut_instances())
    @settings(deadline=None, max_examples=100)
    def test_no_holes_is_identity(self, instance):
        focus, inner, _ = instance
        final, cuts = _conservative_cut(focus, inner, [])
        assert final == inner and cuts == []

    @given(cut_instances())
    @settings(deadline=None, max_examples=100)
    def test_deterministic(self, instance):
        focus, inner, holes = instance
        a, _ = _conservative_cut(focus, inner, holes)
        b, _ = _conservative_cut(focus, inner, list(holes))
        assert a == b
