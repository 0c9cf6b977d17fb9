"""SLO-stack overhead gate: full observability must cost < 10%.

Not a figure of the paper — this guards the tentpole of the
observability tier: the same deterministic query workload is driven
through a bare :class:`~repro.service.service.QueryService` and through
one carrying the whole telemetry stack (dimensional labeled metrics
with native latency buckets, an SLO engine with two objectives,
tail-based trace sampling, phase profiling, event logging).  The bench
reports throughput and latency for both, computes the relative
overhead, and **fails (exit 1) when the instrumented service is more
than 10% slower** — observability that taxes the hot path double-digit
percent is a regression, not a feature.

The two services take the workload in alternating blocks of
``BLOCK`` requests, the order flipping every block, and the gate is
the ratio of their summed times.  Timing whole passes one after the
other measures how the CPU's speed drifted between the passes as much
as the stack; interleaving short blocks gives both services the same
CPU.

The sweep lands in ``BENCH_slo_overhead.json`` (prefix ``slo``) so
``compare.py`` also guards run-over-run drift of the overhead itself.
"""

import sys
from time import perf_counter

from common import CONFIG, SCALE, bulk_load_str, print_table, run_once, \
    uniform_dataset, write_bench_record

from repro.core import LocationServer
from repro.core.api import KNNRequest, WindowRequest
from repro.obs import SLOConfig, SLOEngine
from repro.service import QueryService, TailSamplingConfig

#: The gate: instrumented throughput may cost at most this much.
MAX_OVERHEAD = 0.10
QUERIES = 2_000 if SCALE == "smoke" else 10_000
#: Requests per block; the services alternate block by block.
BLOCK = 25


def _requests(n: int):
    """A deterministic mixed workload (no RNG: reproducible shapes)."""
    reqs = []
    for i in range(n):
        x = 0.05 + (i * 37 % 90) / 100.0
        y = 0.05 + (i * 53 % 90) / 100.0
        if i % 4 == 3:
            reqs.append(WindowRequest((x, y), width=0.04, height=0.04))
        else:
            reqs.append(KNNRequest((x, y), k=8))
    return reqs


def _service(tree, instrumented: bool) -> QueryService:
    server = LocationServer(tree)
    if not instrumented:
        return QueryService(server)
    slo = SLOEngine([
        SLOConfig(name="availability", objective="availability",
                  target=0.999),
        SLOConfig(name="latency", objective="latency", target=0.99,
                  threshold_ms=250.0),
    ])
    return QueryService(server, slo=slo, profile=True,
                        tail=TailSamplingConfig(keep_1_in=10))


def _drive(tree, reqs):
    """Both services over the workload in alternating blocks; returns
    (bare elapsed_s, instrumented elapsed_s, instrumented service)."""
    services = [_service(tree, False), _service(tree, True)]
    elapsed = [0.0, 0.0]
    for block, start in enumerate(range(0, len(reqs), BLOCK)):
        for which in ((0, 1) if block % 2 == 0 else (1, 0)):
            service = services[which]
            t0 = perf_counter()
            for req in reqs[start:start + BLOCK]:
                service.answer(req)
            elapsed[which] += perf_counter() - t0
    return elapsed[0], elapsed[1], services[1]


def run_overhead() -> dict:
    tree = bulk_load_str(uniform_dataset(CONFIG.uniform_cardinalities[0]))
    reqs = _requests(QUERIES)

    base_s, full_s, service = _drive(tree, reqs)

    base_qps = QUERIES / base_s
    full_qps = QUERIES / full_s
    overhead = (full_s - base_s) / base_s
    knn = service.metrics.histogram_merged("service.latency_ms",
                                           query_kind="knn")

    print_table(
        f"SLO-stack overhead: {QUERIES} queries, alternating blocks of "
        f"{BLOCK}",
        ["variant", "elapsed_s", "qps"],
        [("bare service", f"{base_s:.3f}", f"{base_qps:,.0f}"),
         ("slo+tail+profile", f"{full_s:.3f}", f"{full_qps:,.0f}"),
         ("overhead", f"{overhead:+.1%}",
          f"gate < {MAX_OVERHEAD:.0%}")])

    # Sanity: the instrumented run actually exercised the stack.
    snap = service.slo.snapshot()
    assert snap["slos"]["availability"]["observed"]["good"] > 0
    assert service.profiler.snapshot()["sampled"] > 0

    metrics = {
        "queries": QUERIES,
        "baseline_elapsed_s": base_s,
        "instrumented_elapsed_s": full_s,
        "baseline_qps": base_qps,
        "instrumented_qps": full_qps,
        "overhead_frac": overhead,
        "knn_p50_ms": knn["p50"],
        "knn_p95_ms": knn["p95"],
    }
    path = write_bench_record("overhead", metrics,
                              context={"block": BLOCK},
                              prefix="slo")
    print(f"\nbench record appended to {path}")
    return metrics


def test_slo_overhead_gate(benchmark):
    metrics = run_once(benchmark, run_overhead)
    assert metrics["queries"] == QUERIES
    assert metrics["instrumented_qps"] > 0
    # The gate: the full telemetry stack must stay under 10% overhead.
    assert metrics["overhead_frac"] <= MAX_OVERHEAD, (
        f"observability overhead {metrics['overhead_frac']:.1%} exceeds "
        f"the {MAX_OVERHEAD:.0%} gate")


if __name__ == "__main__":
    metrics = run_overhead()
    if metrics["overhead_frac"] > MAX_OVERHEAD:
        print(f"FAIL: observability overhead "
              f"{metrics['overhead_frac']:.1%} exceeds the "
              f"{MAX_OVERHEAD:.0%} gate", file=sys.stderr)
        sys.exit(1)
    print(f"ok: observability overhead {metrics['overhead_frac']:+.1%} "
          f"is inside the {MAX_OVERHEAD:.0%} gate")
