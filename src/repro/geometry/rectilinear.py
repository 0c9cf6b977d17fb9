"""Rectilinear regions: a base rectangle minus a set of hole rectangles.

This is the *exact* validity region of a location-based window query
(paper, Section 4): the focus of the window may roam inside the
intersection of the inner objects' Minkowski rectangles (the base) as
long as it does not enter any outer object's Minkowski rectangle (the
holes).  The paper ships a conservative rectangle instead; this class is
used as ground truth in tests and to quantify how much area the
conservative approximation gives up.

Holes are clipped to the base and holes contained in other holes are
dropped at construction: windows overhanging the universe boundary can
produce thousands of deeply nested Minkowski holes, which dominance
pruning collapses to a handful.  The area computation is a coordinate-
compressed sweep using a 2-D difference array, O(H + nx*ny) for H
surviving holes.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry.rect import Rect


class RectilinearRegion:
    """``base`` minus the union of ``holes`` (all axis-aligned)."""

    __slots__ = ("_base", "_holes")

    def __init__(self, base: Rect, holes: Sequence[Rect] = ()):
        base.validate()
        self._base = base
        # Only the part of each hole overlapping the base matters.
        clipped = []
        for hole in holes:
            inter = base.intersection(hole)
            if inter is not None and inter.area() > 0.0:
                clipped.append(inter)
        self._holes: List[Rect] = _prune_contained(clipped)

    @property
    def base(self) -> Rect:
        return self._base

    @property
    def holes(self) -> List[Rect]:
        return list(self._holes)

    def contains(self, p) -> bool:
        """True when ``p`` is in the base and not strictly inside a hole.

        Hole boundaries count as inside the region: crossing the boundary
        is the instant the window result changes, and validity is defined
        on the closed region (consistent with the paper's closed
        Minkowski-region semantics).
        """
        if not self._base.contains_point(p):
            return False
        return not any(h.contains_point_open(p) for h in self._holes)

    def area(self) -> float:
        """Exact area via a coordinate-compressed difference-array sweep."""
        base = self._base
        if base.area() == 0.0:
            return 0.0
        if not self._holes:
            return base.area()
        xs = np.unique(np.array(
            [b for h in self._holes for b in (h.xmin, h.xmax)]))
        ys = np.unique(np.array(
            [b for h in self._holes for b in (h.ymin, h.ymax)]))
        diff = np.zeros((len(xs), len(ys)))
        for h in self._holes:
            i0 = np.searchsorted(xs, h.xmin)
            i1 = np.searchsorted(xs, h.xmax)
            j0 = np.searchsorted(ys, h.ymin)
            j1 = np.searchsorted(ys, h.ymax)
            diff[i0, j0] += 1.0
            if i1 < len(xs):
                diff[i1, j0] -= 1.0
            if j1 < len(ys):
                diff[i0, j1] -= 1.0
            if i1 < len(xs) and j1 < len(ys):
                diff[i1, j1] += 1.0
        coverage = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] > 0.0
        cell_areas = np.outer(np.diff(xs), np.diff(ys))
        covered = float((cell_areas * coverage).sum())
        return base.area() - covered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RectilinearRegion(base={self._base!r}, holes={self._holes!r})"


def _prune_contained(holes: List[Rect]) -> List[Rect]:
    """Drop duplicate holes and holes fully contained in another hole."""
    if len(holes) < 2:
        return holes
    ordered = sorted(set(holes), key=lambda h: -h.area())
    kept: List[Rect] = []
    for hole in ordered:
        if not any(other.contains_rect(hole) for other in kept):
            kept.append(hole)
    return kept
