"""Axis-aligned rectangles (minimum bounding rectangles).

``Rect`` doubles as the MBR type of the R*-tree and as the Minkowski
region of the window-query validity machinery: for a window with extents
``(wx, wy)`` and a data point ``p``, the set of focus positions for which
the window contains ``p`` is exactly ``Rect.around(p, wx, wy)``.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Sequence

from repro.geometry.point import Point


class Rect(NamedTuple):
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Sequence) -> "Rect":
        """The MBR of a non-empty collection of point-likes."""
        if not points:
            raise ValueError("cannot bound an empty point set")
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def from_rects(cls, rects: Sequence["Rect"]) -> "Rect":
        """The MBR of a non-empty collection of rectangles."""
        if not rects:
            raise ValueError("cannot bound an empty rectangle set")
        return cls(
            min(r.xmin for r in rects),
            min(r.ymin for r in rects),
            max(r.xmax for r in rects),
            max(r.ymax for r in rects),
        )

    @classmethod
    def around(cls, center, width: float, height: float) -> "Rect":
        """Rectangle of extents ``width x height`` centred at ``center``."""
        if width < 0 or height < 0:
            raise ValueError("extents must be non-negative")
        cx, cy = center[0], center[1]
        return cls(cx - width / 2.0, cy - height / 2.0,
                   cx + width / 2.0, cy + height / 2.0)

    def validate(self) -> "Rect":
        """Return ``self`` after checking ``min <= max`` on both axes."""
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"degenerate rectangle {self!r}")
        return self

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def is_empty(self) -> bool:
        """True when the rectangle contains no points at all."""
        return self.xmin > self.xmax or self.ymin > self.ymax

    def area(self) -> float:
        if self.is_empty:
            return 0.0
        return self.width * self.height

    def margin(self) -> float:
        """Half-perimeter, the R*-tree split quality measure."""
        return self.width + self.height

    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def corners(self) -> Iterator[Point]:
        """The four corners in counter-clockwise order."""
        yield Point(self.xmin, self.ymin)
        yield Point(self.xmax, self.ymin)
        yield Point(self.xmax, self.ymax)
        yield Point(self.xmin, self.ymax)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, p, eps: float = 0.0) -> bool:
        """Closed containment, optionally inflated by ``eps``."""
        return (self.xmin - eps <= p[0] <= self.xmax + eps
                and self.ymin - eps <= p[1] <= self.ymax + eps)

    def contains_point_open(self, p, eps: float = 0.0) -> bool:
        """Open (strict-interior) containment, optionally deflated by ``eps``."""
        return (self.xmin + eps < p[0] < self.xmax - eps
                and self.ymin + eps < p[1] < self.ymax - eps)

    def contains_rect(self, other: "Rect") -> bool:
        return (self.xmin <= other.xmin and other.xmax <= self.xmax
                and self.ymin <= other.ymin and other.ymax <= self.ymax)

    def intersects(self, other: "Rect") -> bool:
        return not (other.xmin > self.xmax or other.xmax < self.xmin
                    or other.ymin > self.ymax or other.ymax < self.ymin)

    # ------------------------------------------------------------------
    # constructions
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlap rectangle, or ``None`` when disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin > xmax or ymin > ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    def overlap_area(self, other: "Rect") -> float:
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.area()

    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.xmin, other.xmin), min(self.ymin, other.ymin),
                    max(self.xmax, other.xmax), max(self.ymax, other.ymax))

    def extended(self, p) -> "Rect":
        """The MBR of this rectangle and an extra point."""
        return Rect(min(self.xmin, p[0]), min(self.ymin, p[1]),
                    max(self.xmax, p[0]), max(self.ymax, p[1]))

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to absorb ``other`` (ChooseSubtree metric)."""
        return self.union(other).area() - self.area()

    def inflated(self, dx: float, dy: float) -> "Rect":
        """Minkowski expansion by ``dx`` / ``dy`` on each side.

        Negative values shrink the rectangle; the result may be empty.
        """
        return Rect(self.xmin - dx, self.ymin - dy, self.xmax + dx, self.ymax + dy)

    # ------------------------------------------------------------------
    # uniform grids
    # ------------------------------------------------------------------
    def grid_index(self, p, nx: int, ny: int) -> "tuple[int, int]":
        """The ``(ix, iy)`` cell of an ``nx x ny`` uniform grid over this
        rectangle that contains ``p``.

        Points outside the rectangle are clamped to the border cells, so
        every point maps to a valid cell — what both the validity-region
        cache and the shard router need for out-of-universe queries.
        """
        if nx < 1 or ny < 1:
            raise ValueError("grid extents must be positive")
        fx = (p[0] - self.xmin) / self.width if self.width > 0 else 0.0
        fy = (p[1] - self.ymin) / self.height if self.height > 0 else 0.0
        ix = min(nx - 1, max(0, int(fx * nx)))
        iy = min(ny - 1, max(0, int(fy * ny)))
        return ix, iy

    def grid_cell(self, ix: int, iy: int, nx: int, ny: int) -> "Rect":
        """The bounds of cell ``(ix, iy)`` of an ``nx x ny`` grid."""
        if not (0 <= ix < nx and 0 <= iy < ny):
            raise ValueError(f"cell ({ix}, {iy}) outside a {nx}x{ny} grid")
        w, h = self.width / nx, self.height / ny
        return Rect(self.xmin + ix * w, self.ymin + iy * h,
                    self.xmin + (ix + 1) * w, self.ymin + (iy + 1) * h)

    def grid_range(self, other: "Rect", nx: int, ny: int
                   ) -> "tuple[int, int, int, int]":
        """Inclusive cell-index range ``(ix0, iy0, ix1, iy1)`` of the
        grid cells this rectangle's grid assigns to ``other``."""
        ix0, iy0 = self.grid_index((other.xmin, other.ymin), nx, ny)
        ix1, iy1 = self.grid_index((other.xmax, other.ymax), nx, ny)
        return ix0, iy0, ix1, iy1

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def mindist(self, p) -> float:
        """Minimum distance from ``p`` to the rectangle (0 if inside)."""
        return math.sqrt(self.mindist_sq(p))

    def mindist_sq(self, p) -> float:
        dx = max(self.xmin - p[0], 0.0, p[0] - self.xmax)
        dy = max(self.ymin - p[1], 0.0, p[1] - self.ymax)
        return dx * dx + dy * dy

    def maxdist(self, p) -> float:
        """Maximum distance from ``p`` to any point of the rectangle."""
        dx = max(p[0] - self.xmin, self.xmax - p[0])
        dy = max(p[1] - self.ymin, self.ymax - p[1])
        return math.hypot(dx, dy)


def _cut_away(rect: Rect, box: Rect, p) -> Rect:
    """The largest sub-rectangle of ``rect`` containing ``p`` but not
    overlapping ``box``'s span on one axis.

    ``p`` must lie outside ``box``, so at least one axis side separates
    them; the cut keeping the most area wins.
    """
    candidates = []
    if p[0] < box.xmin:
        candidates.append(Rect(rect.xmin, rect.ymin,
                               min(rect.xmax, box.xmin), rect.ymax))
    if p[0] > box.xmax:
        candidates.append(Rect(max(rect.xmin, box.xmax), rect.ymin,
                               rect.xmax, rect.ymax))
    if p[1] < box.ymin:
        candidates.append(Rect(rect.xmin, rect.ymin,
                               rect.xmax, min(rect.ymax, box.ymin)))
    if p[1] > box.ymax:
        candidates.append(Rect(rect.xmin, max(rect.ymin, box.ymax),
                               rect.xmax, rect.ymax))
    if not candidates:
        return rect
    return max(candidates, key=Rect.area)
