"""Client-side validity-region representations.

The paper requires the shipped representation to (i) be compact and
(ii) make the client-side validity check cheap.  For (k)NN queries the
server ships the influence *pairs* — each pair (result object,
influence object) encodes one bisector half-plane — and the client
checks membership in all half-planes (paper, Section 3.1).  For window
queries the server ships the conservative rectangle, a constant-size
payload.

Sizes are modelled with the paper's storage constants: a data point is
20 bytes (two 8-byte coordinates + 4-byte id), a rectangle 32 bytes.
:func:`delta_bytes` prices the §7 delta re-answer with the same
constants.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.geometry import ConvexPolygon, HalfPlane, Rect, bisector_halfplane
from repro.index.entry import LeafEntry

#: An object id on the wire (a point's id, an influence pair's
#: reference, a removed id, a subscription token).
ID_BYTES = 4
POINT_BYTES = 20
RECT_BYTES = 32
#: Payload of a validity disk: centre (2 x 8 bytes) + radius (8 bytes).
VALIDITY_DISK_BYTES = 24


def delta_bytes(added: int, removed: int, region) -> int:
    """Wire cost of a §7 delta: ``added`` points, ``removed`` ids and
    the fresh ``region``."""
    return POINT_BYTES * added + ID_BYTES * removed + region.transfer_bytes()


class ValidityDisk:
    """A conservative, disk-shaped validity region.

    A range answer ships one around its focus (the §7 extension: the
    result is unchanged while the focus moves less than the radius); a
    degraded, deadline-bounded kNN query ships one when it cannot afford
    the exact region, and the sharded and snapshot kinds clip their
    regions with them.  The disk lies inside the true validity region,
    so the client stays correct; it is merely smaller, making the client
    re-query sooner.  Constant payload, constant-time check.  An
    infinite radius holds every finite point and has no MBR.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: Tuple[float, float], radius: float):
        if radius < 0.0:
            raise ValueError("validity disk radius must be non-negative")
        self.center = (float(center[0]), float(center[1]))
        self.radius = float(radius)

    def contains(self, location, eps: float = 0.0) -> bool:
        dx = float(location[0]) - self.center[0]
        dy = float(location[1]) - self.center[1]
        return math.hypot(dx, dy) <= self.radius + eps

    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def polygon(self, segments: int = 64) -> ConvexPolygon:
        """An *inscribed* polygon (a sound under-approximation)."""
        cx, cy = self.center
        pts = [(cx + self.radius * math.cos(2 * math.pi * i / segments),
                cy + self.radius * math.sin(2 * math.pi * i / segments))
               for i in range(segments)]
        return ConvexPolygon(pts)

    def mbr(self) -> Optional[Rect]:
        """Bounding rectangle (the server-cache index key), or ``None``
        for an unbounded disk."""
        if math.isinf(self.radius):
            return None
        cx, cy = self.center
        return Rect(cx - self.radius, cy - self.radius,
                    cx + self.radius, cy + self.radius)

    def transfer_bytes(self) -> int:
        return VALIDITY_DISK_BYTES


#: Payload of an annulus: centre (2 x 8 bytes) + two radii (2 x 8 bytes).
ANNULUS_BYTES = 32


class AnnulusValidityRegion:
    """A validity region bounded by two concentric circles.

    Probabilistic-kNN answers ship one of these: the reported
    probability bands and candidate ordering are guaranteed wherever
    the (uncertain) client centre stays between ``inner`` and ``outer``
    distance from the anchoring centre.  ``inner == 0`` degenerates to
    a disk; ``inner == outer`` to a circle (or, with both zero, the
    centre point itself).  Constant payload, constant-time check.
    """

    __slots__ = ("center", "inner", "outer")

    def __init__(self, center: Tuple[float, float], inner: float,
                 outer: float):
        if inner < 0.0 or outer < inner:
            raise ValueError("annulus radii must satisfy 0 <= inner <= outer")
        self.center = (float(center[0]), float(center[1]))
        self.inner = float(inner)
        self.outer = float(outer)

    def contains(self, location, eps: float = 0.0) -> bool:
        dx = float(location[0]) - self.center[0]
        dy = float(location[1]) - self.center[1]
        d = math.hypot(dx, dy)
        return self.inner - eps <= d <= self.outer + eps

    def area(self) -> float:
        return math.pi * (self.outer * self.outer - self.inner * self.inner)

    def mbr(self) -> Rect:
        """Bounding rectangle (the server-cache index key)."""
        cx, cy = self.center
        return Rect(cx - self.outer, cy - self.outer,
                    cx + self.outer, cy + self.outer)

    def transfer_bytes(self) -> int:
        return ANNULUS_BYTES


class NNValidityRegion:
    """The validity region of a (k)NN query, as the client sees it.

    Built from influence pairs; membership is the conjunction of the
    bisector half-plane tests, which is exactly the computation the
    paper assigns to the client ("determining whether the current
    position is still inside all the half-planes").
    """

    __slots__ = ("_halfplanes", "_pairs", "_universe", "_mbr")

    def __init__(self, pairs: Sequence[Tuple[LeafEntry, LeafEntry]],
                 universe: Rect):
        """``pairs`` holds (result object, influence object) tuples."""
        self._pairs = tuple(pairs)
        self._universe = universe
        self._mbr = None
        self._halfplanes: List[HalfPlane] = [
            bisector_halfplane(res.point, inf.point) for res, inf in self._pairs
        ]

    @property
    def pairs(self) -> Tuple[Tuple[LeafEntry, LeafEntry], ...]:
        return self._pairs

    @property
    def halfplanes(self) -> List[HalfPlane]:
        return list(self._halfplanes)

    @property
    def num_halfplane_checks(self) -> int:
        """Client work per position update (the Figure 24 metric)."""
        return len(self._halfplanes)

    def contains(self, location, eps: float = 0.0) -> bool:
        """Is the result still valid at ``location``?"""
        if not self._universe.contains_point(location, eps):
            return False
        return all(hp.contains(location, eps) for hp in self._halfplanes)

    def polygon(self) -> ConvexPolygon:
        """Materialize the region as a polygon (plotting / area)."""
        return ConvexPolygon.from_halfplanes(self._halfplanes, self._universe)

    def mbr(self) -> Rect:
        """Bounding rectangle (the server-cache index key).

        Degenerate regions (an empty clip) bound to a zero-area
        rectangle at the universe origin, which no probe point strictly
        inside a cell ever matches via :meth:`contains` anyway.  The
        region is immutable, so the clip runs once.
        """
        if self._mbr is None:
            verts = self.polygon().vertices
            self._mbr = (Rect.from_points(verts) if verts else
                         Rect(self._universe.xmin, self._universe.ymin,
                              self._universe.xmin, self._universe.ymin))
        return self._mbr

    def transfer_bytes(self) -> int:
        """Network payload: the influence objects (one point each).

        Result objects are paid for by the query result itself; pair
        structure costs one id reference per pair.
        """
        influence_oids = {inf.oid for _, inf in self._pairs}
        return POINT_BYTES * len(influence_oids) + ID_BYTES * len(self._pairs)


class WindowValidityRegion:
    """The (conservative, rectangular) validity region of a window query."""

    __slots__ = ("rect",)

    def __init__(self, rect: Rect):
        self.rect = rect

    def contains(self, location, eps: float = 0.0) -> bool:
        return self.rect.contains_point(location, eps)

    def area(self) -> float:
        return self.rect.area()

    def mbr(self) -> Rect:
        """Bounding rectangle (the region itself)."""
        return self.rect

    def transfer_bytes(self) -> int:
        return RECT_BYTES


class CompositeValidityRegion:
    """The intersection of several validity regions.

    This is how a sharded kNN answer represents its guarantee: the
    merged result is provably unchanged wherever *every* per-shard
    region still holds **and** the candidate-reordering safety disk
    around the query is not left.  Membership is the conjunction of the
    component checks; the payload is the sum of the component payloads
    (each shard ships its own influence pairs).
    """

    __slots__ = ("components", "_mbr")

    def __init__(self, components: Sequence):
        if not components:
            raise ValueError("an intersection needs at least one region")
        self.components = tuple(components)
        self._mbr = None

    def contains(self, location, eps: float = 0.0) -> bool:
        return all(c.contains(location, eps) for c in self.components)

    def mbr(self) -> Rect:
        """Bounding rectangle: intersection of the component MBRs.

        Components without an ``mbr`` (open half-plane style regions)
        are skipped — the result stays a sound over-approximation.
        Memoized: the components are immutable.
        """
        if self._mbr is None:
            self._mbr = self._bound()
        return self._mbr

    def _bound(self) -> Rect:
        out = None
        for c in self.components:
            get = getattr(c, "mbr", None)
            box = get() if get is not None else None
            if box is None:  # unbounded component: no constraint
                continue
            if out is None:
                out = box
                continue
            box = out.intersection(box)
            if box is None:
                # Numerically disjoint bounds: collapse to a point.
                return Rect(out.xmin, out.ymin, out.xmin, out.ymin)
            out = box
        if out is None:
            raise ValueError("no component exposes an MBR")
        return out

    def transfer_bytes(self) -> int:
        return sum(c.transfer_bytes() for c in self.components)
