"""Location-based spatial queries: the paper's contribution.

A location-based query returns, besides the ordinary result, a
**validity region** within which the result stays correct, plus the
minimal **influence set** of data points that determine that region.
The mobile client then answers repeated queries locally for as long as
it remains inside the region.

* :mod:`repro.core.nn_validity` — Section 3: validity regions of (k)NN
  queries, computed with TPNN/TPkNN probes aimed at the vertices of a
  shrinking convex region.
* :mod:`repro.core.window_validity` — Section 4: validity regions of
  window queries via Minkowski regions of inner and outer objects.
* :mod:`repro.core.server` / :mod:`repro.core.client` — the
  client/server protocol the paper's introduction motivates.
"""

from repro.core.api import (
    KNNRequest,
    QueryBudget,
    QueryDetail,
    QueryRequest,
    QuerySemantics,
    RangeRequest,
    Response,
    WindowRequest,
    query_semantics,
    register_query_type,
    registered_query_kinds,
)
from repro.core.validity import (
    AnnulusValidityRegion,
    CompositeValidityRegion,
    NNValidityRegion,
    ValidityDisk,
    WindowValidityRegion,
)
from repro.core.rknn import RKNNDetail, RKNNRequest
from repro.core.probknn import ProbKNNDetail, ProbKNNRequest
from repro.core.conformance import check_semantics
from repro.core.nn_validity import (
    NNValidityResult,
    compute_nn_validity,
    retrieve_influence_set_1nn,
    retrieve_influence_set_knn,
)
from repro.core.window_validity import WindowValidityResult, compute_window_validity
from repro.core.range_validity import (
    RangeValidityResult,
    compute_range_validity,
)
from repro.core.server import LocationServer
from repro.core.client import CacheEntry, MobileClient, ClientStats

#: Canonical names of the typed detail hierarchy (see docs/API.md).
KNNDetail = NNValidityResult
WindowDetail = WindowValidityResult
RangeDetail = RangeValidityResult

__all__ = [
    "QueryRequest",
    "Response",
    "QueryBudget",
    "QueryDetail",
    "QuerySemantics",
    "register_query_type",
    "query_semantics",
    "registered_query_kinds",
    "check_semantics",
    "KNNDetail",
    "WindowDetail",
    "RangeDetail",
    "RKNNDetail",
    "ProbKNNDetail",
    "KNNRequest",
    "WindowRequest",
    "RangeRequest",
    "RKNNRequest",
    "ProbKNNRequest",
    "NNValidityRegion",
    "WindowValidityRegion",
    "ValidityDisk",
    "AnnulusValidityRegion",
    "CompositeValidityRegion",
    "NNValidityResult",
    "compute_nn_validity",
    "retrieve_influence_set_1nn",
    "retrieve_influence_set_knn",
    "WindowValidityResult",
    "compute_window_validity",
    "RangeValidityResult",
    "compute_range_validity",
    "LocationServer",
    "MobileClient",
    "ClientStats",
    "CacheEntry",
]
