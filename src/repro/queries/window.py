"""Window queries (thin, named wrappers over the tree traversal)."""

from __future__ import annotations

from typing import List

from repro.geometry import Rect
from repro.index.entry import LeafEntry
from repro.index.rstar import RStarTree


def window_query(tree: RStarTree, rect: Rect) -> List[LeafEntry]:
    """All data points inside the closed rectangle ``rect``."""
    return tree.window(rect)


def window_count(tree: RStarTree, rect: Rect) -> int:
    """Cardinality of a window query (same node accesses)."""
    return len(tree.window(rect))


def annulus_query(tree: RStarTree, outer: Rect, inner: Rect) -> List[LeafEntry]:
    """Points inside ``outer`` but outside the *open* ``inner`` rectangle.

    This is the "marginal rectangle" retrieval of the paper's window
    algorithm (Section 4 / Figure 17): candidate outer influence objects
    live in the extended window minus the original window.  A single
    traversal of ``outer`` is used — exactly what the paper charges for
    the second query of Figure 34 — whose leaf pass drops the inner
    part.  Points on the closed boundary of ``inner`` belong to the
    window result, so they are dropped too.
    """
    return tree.window(outer, exclude=inner)
