"""Sound validity regions for answers served by a lagging replica.

A replica that has not yet applied the primary's latest mutations
answers queries over a *stale* snapshot of the dataset.  The staleness
contract of the replicated tier (:mod:`repro.service.replica`) is the
server-side generalization of the client's ``max_stale`` fallback —
with one crucial strengthening: a stale answer is only served when it
can be made **provably correct for the fresh dataset**, by shrinking
its validity region against the replica's pending-mutation backlog.

:func:`shrunk_stale_region` applies the query kind's mutation rule,
:meth:`~repro.core.api.QuerySemantics.certify`, to the backlog: the
rules per kind live with the kind in :mod:`repro.core`.  It serves the
region of the answer ``certify`` returns when that answer keeps the
stale result list itself — a subset of the stale region in which the
stale result equals the fresh result.  The answer is valid for the
**primary** epoch at serve time, which is what makes admitting it to the
:class:`~repro.service.cache.ValidityCache` sound.  Returning ``None``
(an uncertifiable answer, or a patched result, which would contradict
a §7 delta's ``added`` and ``removed_ids``) means "unserveable from this
replica": the caller fails over to a fresher one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.core.api import (
    Mutation,
    QueryRequest,
    Response,
    query_semantics,
)
from repro.geometry import Rect

__all__ = ["Mutation", "ServedResponse", "shrunk_stale_region"]


@dataclass(kw_only=True)
class ServedResponse(Response):
    """A replica's answer: the :class:`~repro.core.api.Response` it
    computed, under the region it may serve, annotated with how it was
    served.

    ``region`` is already the staleness-shrunk one when the replica
    lagged.  The annotation is what the service layer meters: which
    replica answered, at which epoch, how many unapplied mutations it
    lagged by, the primary epoch the answer is valid for, how many
    failovers the request survived, and the per-phase access deltas
    measured inside the replica's lock (the concurrent-safe replacement
    for the service's before/after diff, which would race across
    parallel replicas).
    """

    replica_id: int
    epoch: int
    staleness: int = 0
    valid_for_epoch: int
    failovers: int = 0
    node_accesses: Dict[str, int] = field(default_factory=dict)
    page_faults: Dict[str, int] = field(default_factory=dict)


def shrunk_stale_region(request: QueryRequest, response: Response,
                        pending: Sequence[Mutation], universe: Rect):
    """The fresh-dataset validity region of a stale answer, or ``None``.

    ``pending`` is the replica's mutation backlog at serve time (primary
    changes the answering snapshot has not seen).  Returns a region that
    is a subset of ``response.region`` inside which the stale result
    provably equals the fresh result, or ``None`` when no such region
    containing the query point exists (the answer is unserveable stale).
    """
    after = query_semantics(request).certify(request, response, pending,
                                             universe)
    if after is None or after.result is not response.result:
        return None
    return after.region
