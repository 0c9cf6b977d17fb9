"""The unified request/response surface of the location server.

This module defines the generic surface that every caller — the mobile
client, the query service, the CLI, the benchmark harness — programs
against:

* typed request dataclasses (:class:`KNNRequest`, :class:`WindowRequest`,
  :class:`RangeRequest`), each carrying everything the server needs to
  answer it, including the cached result ids that turn a re-query into
  an incremental (delta) request;
* :class:`Response`, the one record every answer is — the result
  entries, the validity region, the per-kind detail and, on a §7
  re-answer, the delta — priced by one byte formula, so generic code
  never needs to know which query type or path produced a response;
* :meth:`repro.core.server.LocationServer.answer`, the single entry
  point dispatching any request to the right processing path.

``answer(request)`` is the only query entry point: the per-type server
methods (``knn_query`` etc.) and the mapping-style ``detail["..."]``
shim were removed in v1.3.0, the per-kind response classes in v7.0.0,
and the delta and replica wrappers and the response protocol in v8.0.0
— see docs/API.md.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace
from time import perf_counter
from typing import (
    ClassVar,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.validity import POINT_BYTES, delta_bytes
from repro.index.entry import LeafEntry
from repro.index.rstar import check_finite

__all__ = [
    "QueryRequest",
    "KNNRequest",
    "WindowRequest",
    "RangeRequest",
    "Response",
    "QueryBudget",
    "BudgetClock",
    "QueryDetail",
    "Mutation",
    "QuerySemantics",
    "register_query_type",
    "query_semantics",
    "registered_query_kinds",
]


class QueryDetail:
    """Base of the typed per-query-type detail hierarchy.

    Every response's ``detail`` is a dataclass deriving from this base:
    ``KNNDetail`` (:class:`~repro.core.nn_validity.NNValidityResult`),
    ``WindowDetail`` (:class:`~repro.core.window_validity.WindowValidityResult`),
    ``RangeDetail`` (:class:`~repro.core.range_validity.RangeValidityResult`)
    — plus the sharded merge records of :mod:`repro.service.shard`.
    The base guarantees the two fields generic code relies on:

    * ``kind`` — the query type the detail describes;
    * ``degraded`` — whether the budget ran out and the shipped region
      is a conservative under-approximation (the result stays exact).
    """

    #: The query type this detail record describes.
    kind: ClassVar[str] = ""

    # Subclasses are dataclasses that define ``degraded`` as a field;
    # the class attribute makes the flag total across the hierarchy.
    degraded: bool = False

    @property
    def influence_set(self) -> List:
        """Distinct influence objects (empty when not applicable)."""
        return []


@dataclass(frozen=True)
class QueryBudget:
    """A per-query processing allowance.

    ``deadline_ms`` bounds server-side wall-clock time; ``max_node_accesses``
    bounds simulated I/O.  When either is exhausted mid-computation the
    server stops refining the validity region and ships a **degraded
    response**: the (still exact) query result with a conservatively
    shrunk region and ``detail.degraded`` set — clients stay correct,
    they just re-query sooner.
    """

    deadline_ms: Optional[float] = None
    max_node_accesses: Optional[int] = None

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError("deadline_ms must be non-negative")
        if self.max_node_accesses is not None and self.max_node_accesses < 0:
            raise ValueError("max_node_accesses must be non-negative")

    @property
    def unlimited(self) -> bool:
        return self.deadline_ms is None and self.max_node_accesses is None

    def start(self, io_stats=None) -> "BudgetClock":
        """Begin metering against this budget (``io_stats`` is the
        disk's :class:`~repro.storage.counters.AccessStats`)."""
        return BudgetClock(self, io_stats)


class BudgetClock:
    """The running state of one query's :class:`QueryBudget`."""

    __slots__ = ("budget", "_t0", "_io", "_na0")

    def __init__(self, budget: QueryBudget, io_stats=None):
        self.budget = budget
        self._t0 = perf_counter()
        self._io = io_stats if budget.max_node_accesses is not None else None
        self._na0 = (io_stats.total_node_accesses
                     if self._io is not None else 0)

    @property
    def elapsed_ms(self) -> float:
        return (perf_counter() - self._t0) * 1e3

    @property
    def node_accesses(self) -> int:
        if self._io is None:
            return 0
        return self._io.total_node_accesses - self._na0

    def exhausted(self) -> bool:
        """Has either dimension of the budget run out?"""
        b = self.budget
        if b.deadline_ms is not None and self.elapsed_ms >= b.deadline_ms:
            return True
        if (b.max_node_accesses is not None
                and self.node_accesses >= b.max_node_accesses):
            return True
        return False


@dataclass
class Response:
    """One answer as the server ships it, whatever its kind or path.

    ``result`` lists the answering :class:`~repro.index.entry.LeafEntry`
    objects, ``region`` is the validity region the client caches and
    ``detail`` the kind's computation record.  Each result entry costs
    ``entry_bytes`` on the wire: a point, plus whatever the kind tags
    every entry with.  A §7 re-answer against the request's
    ``previous_ids`` also carries the delta, ``added`` and
    ``removed_ids`` (both ``None`` on a full answer), and ships only
    those with the region.  A layer that narrows the guarantee — a
    lagging replica, a brownout — replaces ``region``; a replica's
    answer is the :class:`~repro.service.staleness.ServedResponse`
    subclass.
    """

    result: List[LeafEntry]
    region: object
    detail: object
    entry_bytes: int = POINT_BYTES
    added: Optional[List[LeafEntry]] = None
    removed_ids: Optional[List[int]] = None

    def transfer_bytes(self) -> int:
        """The result entries, or the delta, plus the region (the
        paper's cost model)."""
        if self.added is not None:
            return delta_bytes(len(self.added), len(self.removed_ids),
                               self.region)
        return (self.entry_bytes * len(self.result)
                + self.region.transfer_bytes())


def _freeze_ids(ids) -> Optional[Tuple[int, ...]]:
    if ids is None:
        return None
    return tuple(int(i) for i in ids)


@dataclass(frozen=True)
class KNNRequest:
    """A location-based kNN query: the ``k`` nearest objects to ``location``."""

    kind: ClassVar[str] = "knn"

    location: Tuple[float, float]
    k: int = 1
    #: Vertex-selection policy for the influence-set retrieval
    #: (see :data:`repro.core.nn_validity.VERTEX_POLICIES`).
    vertex_policy: str = "fifo"
    #: Result ids of the caller's cached response.  When set, the server
    #: answers incrementally (§7): only additions/removals are shipped.
    previous_ids: Optional[Tuple[int, ...]] = None
    #: Caller-chosen correlation id, echoed through traces and logs.
    trace_id: Optional[str] = None
    #: Per-query processing allowance; exhausting it yields a degraded
    #: (conservatively shrunk-region) response instead of an error.
    budget: Optional[QueryBudget] = None
    #: Staleness bound for replica reads: the answering replica may lag
    #: the primary by at most this many unapplied mutations (its region
    #: is conservatively shrunk so the answer stays provably correct).
    #: ``None`` defers to the server's default (fresh reads only).
    max_stale: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "previous_ids",
                           _freeze_ids(self.previous_ids))
        check_finite(self.location[0], self.location[1])
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be non-negative")

    def as_delta(self, previous_ids) -> "KNNRequest":
        """This request as an incremental re-query versus ``previous_ids``."""
        return replace(self, previous_ids=_freeze_ids(previous_ids))


@dataclass(frozen=True)
class WindowRequest:
    """A location-based window query centred on ``focus``."""

    kind: ClassVar[str] = "window"

    focus: Tuple[float, float]
    width: float
    height: float
    previous_ids: Optional[Tuple[int, ...]] = None
    trace_id: Optional[str] = None
    budget: Optional[QueryBudget] = None
    #: Replica-read staleness bound (see :class:`KNNRequest.max_stale`).
    max_stale: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "previous_ids",
                           _freeze_ids(self.previous_ids))
        check_finite(self.focus[0], self.focus[1])
        if not (self.width > 0 and self.height > 0):  # NaN included
            raise ValueError("window extents must be positive")
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be non-negative")

    def as_delta(self, previous_ids) -> "WindowRequest":
        """This request as an incremental re-query versus ``previous_ids``."""
        return replace(self, previous_ids=_freeze_ids(previous_ids))


@dataclass(frozen=True)
class RangeRequest:
    """A location-based circular range query around ``location``."""

    kind: ClassVar[str] = "range"

    location: Tuple[float, float]
    radius: float
    previous_ids: Optional[Tuple[int, ...]] = None
    trace_id: Optional[str] = None
    budget: Optional[QueryBudget] = None
    #: Replica-read staleness bound (see :class:`KNNRequest.max_stale`).
    max_stale: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "previous_ids",
                           _freeze_ids(self.previous_ids))
        check_finite(self.location[0], self.location[1])
        if not self.radius > 0:  # NaN included
            raise ValueError("radius must be positive")
        if self.max_stale is not None and self.max_stale < 0:
            raise ValueError("max_stale must be non-negative")

    def as_delta(self, previous_ids) -> "RangeRequest":
        """This request as an incremental re-query versus ``previous_ids``."""
        return replace(self, previous_ids=_freeze_ids(previous_ids))


@runtime_checkable
class QueryRequest(Protocol):
    """Any registered query request (open protocol, not a closed union).

    A request is whatever a registered :class:`QuerySemantics` says it
    is; structurally it carries a ``kind`` tag plus the cross-cutting
    fields every service layer reads (``trace_id``, ``budget``).
    """

    kind: str
    trace_id: Optional[str]
    budget: Optional[QueryBudget]


@dataclass(frozen=True)
class Mutation:
    """One dataset change: what a cache entry, a lagging replica's
    answer or a subscription must be certified against."""

    op: str  # "insert" | "delete"
    oid: int
    x: float
    y: float

    def __post_init__(self):
        if self.op not in ("insert", "delete"):
            raise ValueError(f"unknown mutation op {self.op!r}")

    @property
    def entry(self) -> LeafEntry:
        return LeafEntry(self.oid, self.x, self.y)


# ----------------------------------------------------------------------
# the query-type registry
# ----------------------------------------------------------------------
class QuerySemantics:
    """Everything one query type means to the serving stack.

    One instance per query ``kind`` bundles the per-type behaviour that
    used to live as ``isinstance`` ladders across the service tiers:

    * ``execute`` — the full answer to the request, a
      :class:`Response`, on any server shape, a
      :class:`~repro.core.server.LocationServer` or a
      :class:`~repro.service.shard.ShardedServer` (both expose
      ``_knn``/``_window``/``_range`` and ``dataset_columns()``); the
      server itself turns it into a §7 delta when the request carries
      ``previous_ids``;
    * ``location`` / ``cache_key`` / ``serve_cached`` —
      :class:`~repro.service.cache.ValidityCache` addressing and
      admissibility, and re-serving an answer at another location;
    * ``certify`` — the one mutation rule: the answer after a list of
      mutations.  The cache keeps an entry iff it returns the entry's
      own answer, a lagging replica serves the region of a copy that
      keeps its result, and a subscription pushes whatever it returns;
    * ``reach`` — a box outside which no mutation changes the answer
      anywhere in its region, so the cache re-stamps an entry without
      a ``certify`` call for a mutation outside it;
    * ``subscribe_init`` / ``refetch_request`` — the answer a
      subscription holds (gated on ``supports_subscriptions``); the hub
      patches it through ``certify`` and moves it through
      ``serve_cached``;
    * ``oracle`` — a brute-force reference answer, powering the
      reusable :func:`repro.core.conformance.check_semantics` suite.

    Third-party types subclass this, set ``kind``/``request_type``, and
    call :func:`register_query_type`.
    """

    #: The request tag this semantics object answers for.
    kind: str = ""
    #: The concrete request dataclass (used for registry lookups by type).
    request_type: Optional[type] = None
    #: Whether the continuous hub may hold answers of this kind.
    supports_subscriptions: bool = False

    # --- execution ----------------------------------------------------
    def execute(self, server, request) -> Response:
        """The full (never delta) answer to ``request`` on ``server``,
        single-tree or sharded; ``previous_ids`` is not read here.

        It must be a :class:`Response` itself: a kind prices extras on
        every entry with ``entry_bytes=`` and keeps the rest on
        ``detail``.  The server refuses anything else with a
        ``TypeError`` naming the kind.
        """
        raise NotImplementedError

    # --- cache addressing / admissibility -----------------------------
    def location(self, request) -> Tuple[float, float]:
        """The client location the request is anchored at."""
        loc = getattr(request, "location", None)
        if loc is not None:
            return loc
        return request.focus

    def cache_key(self, request) -> Optional[tuple]:
        """Query-shape key for the validity cache (None = uncacheable)."""
        return None

    def serve_cached(self, request, response) -> Optional[Response]:
        """``response`` served at ``request``'s location: itself when it
        needs no adaptation, a ``dataclasses.replace`` copy (which keeps
        a replica's annotation) when it does — e.g. kNN hits re-ranked
        by distance to the probing point — or ``None`` when it cannot be
        served there (never on a cache hit, whose region holds the
        location).  The hub re-serves an unadapted answer to a moved
        subscriber only while its region holds the location."""
        return response

    # --- the mutation rule --------------------------------------------
    def certify(self, request, response, mutations, universe
                ) -> Optional[Response]:
        """The answer after ``mutations``, exact inside its region:

        * **unchanged** — ``response`` itself (the same object) when no
          mutation can change ``response.result`` anywhere in
          ``response.region``;
        * **a copy** (``dataclasses.replace``) — a region shrunk inside
          ``response.region`` that still contains the request's
          location, a patched result, or both, exact on the mutated
          dataset.  A region-only copy keeps the very ``result`` list
          (a lagging replica serves only such a copy);
        * ``None`` — no such answer can be certified.

        The region read is the one given (its rectangle, centre,
        radius, half-planes or MBR); the request's location serves only
        the final "does the answer still hold here" test.  The default
        knows no rule: ``response`` for no mutations, ``None``
        otherwise.
        """
        return response if not mutations else None

    def reach(self, request, response):
        """A :class:`~repro.geometry.Rect` outside which no insert or
        delete changes ``response.result`` anywhere in
        ``response.region``, or ``None``: a mutation anywhere may.

        A box is a promise about :meth:`certify`: every member of the
        result lies inside it, and ``certify`` returns ``response``
        itself for an insert, or a delete of a non-member, at any point
        outside it.  Return one only where that is provable, rounding
        included.  Only the validity cache reads it.  The default is
        ``None``.
        """
        return None

    # --- continuous queries -------------------------------------------
    def subscribe_init(self, hub, request) -> Response:
        """The answer a new subscription to ``request`` holds, with any
        state it is patched from on its ``detail`` (kNN's candidates).
        The default is the hub ``owner``'s fresh answer."""
        return hub.owner.answer(
            self.refetch_request(request, self.location(request)))

    def refetch_request(self, request, location):
        """A fresh (non-delta) copy of ``request`` at ``location``."""
        raise NotImplementedError

    # --- conformance oracle -------------------------------------------
    def oracle(self, points, request) -> Tuple[set, set]:
        """Brute-force reference: ``(must_ids, may_ids)`` — every
        correct answer contains all of ``must_ids`` and nothing outside
        ``may_ids`` (the gap is tie slack)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} kind={self.kind!r}>"


_REGISTRY: dict = {}
_BY_TYPE: dict = {}
_BUILTINS_LOADED = False
_CERTIFY = ("removed in v3.0: implement certify(request, response, "
            "mutations, universe) instead")
#: Hooks a semantics may no longer define, and what replaced each.
_REMOVED_HOOKS = {
    "cache_survives": _CERTIFY,
    "stale_region": _CERTIFY,
    "shard_execute": ("removed in v5.0: implement execute(server, "
                      "request), which runs on every server shape"),
    "continuous_apply": ("removed in v10.0: certify(request, response, "
                         "mutations, universe) returns the patched answer"),
    "continuous_move": ("removed in v10.0: serve_cached(request, "
                        "response) re-serves the held answer at the new "
                        "location"),
}


def register_query_type(semantics: QuerySemantics) -> QuerySemantics:
    """Register (or replace) the semantics for ``semantics.kind``.

    Returns the registered object so the call composes as a statement
    or decorator-style tail call.  A semantics still defining a removed
    hook raises ``TypeError`` naming its replacement
    (:meth:`QuerySemantics.certify` for the v3.0 mutation hooks and
    ``continuous_apply``, :meth:`QuerySemantics.execute` for
    ``shard_execute``, :meth:`QuerySemantics.serve_cached` for
    ``continuous_move``): registering it silently would drop the rule
    it holds.  A ``request_type`` that is not a dataclass raises
    ``TypeError``: the service sets budgets with
    :func:`dataclasses.replace`.
    """
    if not isinstance(semantics, QuerySemantics):
        raise TypeError(f"not a QuerySemantics: {semantics!r}")
    removed = [f"{hook}, {why}" for hook, why in _REMOVED_HOOKS.items()
               if hasattr(semantics, hook)]
    if removed:
        raise TypeError(
            f"{type(semantics).__name__} defines {'; '.join(removed)}")
    if not semantics.kind:
        raise ValueError("semantics.kind must be a non-empty string")
    if semantics.request_type is None:
        raise ValueError("semantics.request_type must be set")
    if not is_dataclass(semantics.request_type):
        raise TypeError(f"semantics.request_type must be a dataclass, not "
                        f"{semantics.request_type!r}")
    _REGISTRY[semantics.kind] = semantics
    _BY_TYPE[semantics.request_type] = semantics
    return semantics


def _ensure_builtins() -> None:
    """Load the built-in semantics lazily (avoids import cycles).

    The flag is set only once the imports have returned: a thread whose
    first lookup arrives while another thread is importing them blocks
    on that module's import lock instead of finding the registry empty.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from repro.core import semantics as _builtin  # noqa: F401
    from repro.core import rknn as _rknn          # noqa: F401
    from repro.core import probknn as _probknn    # noqa: F401
    _BUILTINS_LOADED = True


def query_semantics(request_or_kind) -> QuerySemantics:
    """The registered :class:`QuerySemantics` for a request or kind tag.

    Raises ``TypeError`` for anything unregistered — the registry is
    the single dispatch point replacing the old ``isinstance`` ladders.
    """
    _ensure_builtins()
    if isinstance(request_or_kind, str):
        try:
            return _REGISTRY[request_or_kind]
        except KeyError:
            raise TypeError(
                f"no query type registered for kind {request_or_kind!r}")
    sem = _BY_TYPE.get(type(request_or_kind))
    if sem is not None:
        return sem
    kind = getattr(request_or_kind, "kind", None)
    if kind is not None and kind in _REGISTRY:
        return _REGISTRY[kind]
    raise TypeError(f"not a query request: {request_or_kind!r}")


def registered_query_kinds() -> Tuple[str, ...]:
    """All registered kind tags, sorted (built-ins included)."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))
