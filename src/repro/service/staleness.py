"""Sound validity regions for answers served by a lagging replica.

A replica that has not yet applied the primary's latest mutations
answers queries over a *stale* snapshot of the dataset.  The staleness
contract of the replicated tier (:mod:`repro.service.replica`) is the
server-side generalization of the client's ``max_stale`` fallback —
with one crucial strengthening: a stale answer is only served when it
can be made **provably correct for the fresh dataset**, by shrinking
its validity region against the replica's pending-mutation backlog.

:func:`shrunk_stale_region` is the query kind's mutation certificate,
:meth:`~repro.core.api.QuerySemantics.certify`, applied to the backlog:
the rules per kind live with the kind in :mod:`repro.core`.  The region
it returns is a subset of the stale region in which the stale result
equals the fresh result — the answer is valid for the **primary** epoch
at serve time, which is what makes admitting it to the
:class:`~repro.service.cache.ValidityCache` sound.  Returning ``None``
means "unserveable from this replica": the caller fails over to a
fresher one.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.api import (
    Mutation,
    QueryRequest,
    QueryResponse,
    query_semantics,
)
from repro.geometry import Rect

__all__ = ["Mutation", "ServedResponse", "shrunk_stale_region"]


class ServedResponse:
    """A :class:`QueryResponse` proxy annotated with how it was served.

    Wraps the replica's raw response, optionally overriding its region
    with the staleness-shrunk (or brownout-shrunk) one, and carries the
    serving metadata the service layer meters: which replica answered,
    at which epoch, how stale it was, how many failovers the request
    survived, and the per-phase access deltas measured inside the
    replica's lock (the concurrent-safe replacement for the service's
    before/after diff, which would race across parallel replicas).
    """

    __slots__ = ("inner", "region", "replica_id", "epoch", "staleness",
                 "valid_for_epoch", "failovers", "brownout_level",
                 "node_accesses", "page_faults")

    def __init__(self, inner: QueryResponse, region=None,
                 replica_id: Optional[int] = None,
                 epoch: Optional[int] = None,
                 staleness: int = 0,
                 valid_for_epoch: Optional[int] = None,
                 failovers: int = 0,
                 brownout_level: int = 0,
                 node_accesses: Optional[Dict[str, int]] = None,
                 page_faults: Optional[Dict[str, int]] = None):
        self.inner = inner
        self.region = inner.region if region is None else region
        self.replica_id = replica_id
        self.epoch = epoch
        self.staleness = staleness
        self.valid_for_epoch = valid_for_epoch
        self.failovers = failovers
        self.brownout_level = brownout_level
        self.node_accesses = node_accesses if node_accesses is not None else {}
        self.page_faults = page_faults if page_faults is not None else {}

    @property
    def result(self):
        return self.inner.result

    @property
    def detail(self):
        return self.inner.detail

    def transfer_bytes(self) -> int:
        base = self.inner.transfer_bytes()
        if self.region is not self.inner.region:
            base += (self.region.transfer_bytes()
                     - self.inner.region.transfer_bytes())
        return base

    def with_inner(self, inner: QueryResponse) -> "ServedResponse":
        """A copy of this annotation around a replacement response
        (used by the service's cached-kNN re-ranking)."""
        region = None if self.region is self.inner.region else self.region
        return ServedResponse(
            inner, region=region, replica_id=self.replica_id,
            epoch=self.epoch, staleness=self.staleness,
            valid_for_epoch=self.valid_for_epoch, failovers=self.failovers,
            brownout_level=self.brownout_level,
            node_accesses=self.node_accesses, page_faults=self.page_faults)

    def __getattr__(self, name):
        # A delta's ``added`` and ``removed_ids`` proxy through.
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServedResponse(replica={self.replica_id}, "
                f"staleness={self.staleness}, inner={self.inner!r})")


def shrunk_stale_region(request: QueryRequest, response: QueryResponse,
                        pending: Sequence[Mutation], universe: Rect):
    """The fresh-dataset validity region of a stale answer, or ``None``.

    ``pending`` is the replica's mutation backlog at serve time (primary
    changes the answering snapshot has not seen).  Returns a region that
    is a subset of ``response.region`` inside which the stale result
    provably equals the fresh result, or ``None`` when no such region
    containing the query point exists (the answer is unserveable stale).
    """
    return query_semantics(request).certify(request, response, pending,
                                            universe)
