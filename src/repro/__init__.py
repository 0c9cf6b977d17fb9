"""repro — Location-based Spatial Queries (SIGMOD 2003), reproduced.

A mobile client issuing nearest-neighbour or window queries with
respect to its own position can avoid most server round-trips if the
server returns, together with each result, a **validity region**: the
area within which the result provably stays the same.  This library
implements the full system of the paper:

>>> from repro import LocationServer, MobileClient, uniform_points
>>> server = LocationServer.from_points(uniform_points(10_000, seed=1))
>>> client = MobileClient(server)
>>> nearest = client.knn((0.5, 0.5), k=1)
>>> nearest == client.knn((0.5001, 0.5001), k=1)  # served from cache
True

See README.md for the architecture and EXPERIMENTS.md for the
reproduction of every figure of the paper's evaluation.
"""

from repro.geometry import ConvexPolygon, HalfPlane, Point, Rect, RectilinearRegion
from repro.index import RStarTree, bulk_load_str
from repro.queries import nearest_neighbors, tp_knn, tp_nn, tp_window, window_query
from repro.core import (
    KNNRequest,
    LocationServer,
    MobileClient,
    ProbKNNRequest,
    QueryBudget,
    QuerySemantics,
    RKNNRequest,
    RangeRequest,
    Response,
    WindowRequest,
    check_semantics,
    compute_nn_validity,
    compute_range_validity,
    compute_window_validity,
    query_semantics,
    register_query_type,
    registered_query_kinds,
)
from repro.analysis import (
    MinskewHistogram,
    expected_nn_validity_area,
    expected_window_validity_area,
)
from repro.datasets import (
    make_greece_like,
    make_north_america_like,
    uniform_points,
)
from repro.mobility import (
    random_walk,
    random_waypoint,
    simulate_knn_protocols,
    simulate_window_protocols,
)
from repro.kernel import ExecutionConfig
from repro.obs import (
    EventLog,
    MetricsRegistry,
    PhaseProfiler,
    SLOConfig,
    SLOEngine,
    TraceContext,
    chrome_trace,
    current_trace,
    new_trace_id,
    prometheus_text,
    span_tree,
    start_trace,
    write_chrome_trace,
)
from repro.service import (
    AdmissionConfig,
    AdmissionRejectedError,
    CacheConfig,
    ClientFleet,
    ContinuousConfig,
    FleetConfig,
    QueryService,
    ReplicaConfig,
    ReplicaSet,
    ResilienceConfig,
    RetryBudgetConfig,
    ServedResponse,
    ShardedServer,
    Subscription,
    SubscriptionUpdate,
    TailSamplingConfig,
    ValidityCache,
    build_service,
)

__version__ = "10.0.0"

#: The canonical public surface (docs/API.md documents every name;
#: ``python -m repro.service.checkapi`` fails CI when the two drift).
__all__ = [
    "Point",
    "Rect",
    "HalfPlane",
    "ConvexPolygon",
    "RectilinearRegion",
    "RStarTree",
    "bulk_load_str",
    "nearest_neighbors",
    "window_query",
    "tp_nn",
    "tp_knn",
    "tp_window",
    "LocationServer",
    "MobileClient",
    "KNNRequest",
    "WindowRequest",
    "RangeRequest",
    "RKNNRequest",
    "ProbKNNRequest",
    "QueryBudget",
    "Response",
    "QuerySemantics",
    "register_query_type",
    "query_semantics",
    "registered_query_kinds",
    "check_semantics",
    "compute_nn_validity",
    "compute_window_validity",
    "compute_range_validity",
    "MinskewHistogram",
    "expected_nn_validity_area",
    "expected_window_validity_area",
    "uniform_points",
    "make_greece_like",
    "make_north_america_like",
    "random_waypoint",
    "random_walk",
    "simulate_knn_protocols",
    "simulate_window_protocols",
    "QueryService",
    "ResilienceConfig",
    "MetricsRegistry",
    "ClientFleet",
    "FleetConfig",
    "build_service",
    "ShardedServer",
    "ReplicaSet",
    "ReplicaConfig",
    "ServedResponse",
    "AdmissionConfig",
    "AdmissionRejectedError",
    "RetryBudgetConfig",
    "ValidityCache",
    "CacheConfig",
    "ContinuousConfig",
    "Subscription",
    "SubscriptionUpdate",
    "ExecutionConfig",
    "TraceContext",
    "start_trace",
    "current_trace",
    "new_trace_id",
    "EventLog",
    "ObservabilityServer",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
    "span_tree",
    "SLOConfig",
    "SLOEngine",
    "PhaseProfiler",
    "TailSamplingConfig",
    "__version__",
]


def __getattr__(name):
    if name == "ObservabilityServer":  # imported on first use, see repro.obs
        from repro.obs import ObservabilityServer
        return ObservabilityServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
