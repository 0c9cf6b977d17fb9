"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``dataset``   generate a dataset (uniform / gr / na) into a ``.npy`` file
``build``     bulk-load an R*-tree from a ``.npy`` file and save it
``query``     run knn / window / range queries against a saved tree
``simulate``  compare the client protocols over a random-waypoint trace
``service``   drive a simulated client fleet through the instrumented
              query service and dump its stats snapshot as JSON
              (``--metrics-port`` serves /metrics, /traces, /events live)
``obs``       talk to a running service's observability endpoint:
              scrape metrics, tail the event log, dump a span tree or a
              Perfetto-loadable Chrome trace
``demo``      a self-contained end-to-end demonstration
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.core import (
    KNNRequest,
    LocationServer,
    MobileClient,
    RangeRequest,
    WindowRequest,
)
from repro.datasets import (
    make_greece_like,
    make_north_america_like,
    uniform_points,
)
from repro.geometry import Rect
from repro.index import bulk_load_str
from repro.kernel import KERNELS, ExecutionConfig
from repro.mobility import random_waypoint, simulate_knn_protocols
from repro.service import ClientFleet, FleetConfig, QueryService
from repro.storage.serialize import load_tree, save_tree


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Location-based spatial queries (SIGMOD 2003 repro)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate a point dataset")
    p_dataset.add_argument("--kind", choices=("uniform", "gr", "na"),
                           default="uniform")
    p_dataset.add_argument("--n", type=int, default=10_000)
    p_dataset.add_argument("--seed", type=int, default=0)
    p_dataset.add_argument("--out", required=True)

    p_build = sub.add_parser("build", help="bulk-load and save an R*-tree")
    p_build.add_argument("--points", required=True, help=".npy point file")
    p_build.add_argument("--out", required=True, help="output tree file")
    p_build.add_argument("--capacity", type=int, default=None)
    p_build.add_argument("--fill", type=float, default=0.7)

    p_query = sub.add_parser("query", help="query a saved tree")
    p_query.add_argument("--tree", required=True)
    kind = p_query.add_subparsers(dest="query_kind", required=True)
    p_knn = kind.add_parser("knn")
    p_knn.add_argument("x", type=float)
    p_knn.add_argument("y", type=float)
    p_knn.add_argument("-k", type=int, default=1)
    p_win = kind.add_parser("window")
    p_win.add_argument("x", type=float)
    p_win.add_argument("y", type=float)
    p_win.add_argument("width", type=float)
    p_win.add_argument("height", type=float)
    p_rng = kind.add_parser("range")
    p_rng.add_argument("x", type=float)
    p_rng.add_argument("y", type=float)
    p_rng.add_argument("radius", type=float)
    p_rk = kind.add_parser("rknn", help="reverse kNN: objects that count "
                                        "the query among their k nearest")
    p_rk.add_argument("x", type=float)
    p_rk.add_argument("y", type=float)
    p_rk.add_argument("-k", type=int, default=1)
    p_pk = kind.add_parser("probknn", help="kNN under a location-"
                                           "uncertainty disk")
    p_pk.add_argument("x", type=float)
    p_pk.add_argument("y", type=float)
    p_pk.add_argument("uncertainty", type=float)
    p_pk.add_argument("-k", type=int, default=1)

    p_sim = sub.add_parser("simulate",
                           help="compare protocols over a moving client")
    p_sim.add_argument("--n", type=int, default=20_000)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--speed", type=float, default=0.002)
    p_sim.add_argument("-k", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)

    p_svc = sub.add_parser(
        "service",
        help="run a simulated client fleet through the query service")
    p_svc.add_argument("--n", type=int, default=20_000,
                       help="dataset cardinality")
    p_svc.add_argument("--clients", type=int, default=16)
    p_svc.add_argument("--ticks", type=int, default=30)
    p_svc.add_argument("--threads", type=int, default=8)
    p_svc.add_argument("--seed", type=int, default=0)
    p_svc.add_argument("--speed", type=float, default=0.01)
    p_svc.add_argument("-k", type=int, default=3)
    p_svc.add_argument("--subscription-share", type=float, default=0.0,
                       help="fraction of clients running as continuous-"
                            "query subscribers (server push)")
    p_svc.add_argument("--knn-margin", type=int, default=8,
                       help="extra neighbours retained per kNN "
                            "subscription (the O(delta) patch budget)")
    p_svc.add_argument("--incremental-share", type=float, default=0.0,
                       help="fraction of clients using the delta protocol")
    p_svc.add_argument("--rknn-share", type=float, default=0.0,
                       help="fraction of clients issuing reverse-kNN "
                            "queries")
    p_svc.add_argument("--probknn-share", type=float, default=0.0,
                       help="fraction of clients issuing probabilistic "
                            "kNN queries")
    p_svc.add_argument("--probknn-uncertainty", type=float, default=0.02,
                       help="uncertainty-disk radius for probabilistic "
                            "kNN clients")
    p_svc.add_argument("--buffer-fraction", type=float, default=0.1,
                       help="LRU buffer size as a fraction of tree pages")
    p_svc.add_argument("--shards", type=int, default=1,
                       help="K builds a KxK scatter-gather shard grid "
                            "(1 = the paper's single R*-tree)")
    p_svc.add_argument("--replicas", type=int, default=1,
                       help="N fronts N independent server replicas with "
                            "consistent-hash routing and failover "
                            "(1 = unreplicated)")
    p_svc.add_argument("--replication-lag", type=int, default=0,
                       help="max pending mutations a replica may lag the "
                            "primary by (0 = synchronous replication)")
    p_svc.add_argument("--cache-capacity", type=int, default=0,
                       help="server-side validity-region cache size "
                            "(0 disables it)")
    p_svc.add_argument("--cache-grid", type=int, default=16,
                       help="resolution of the cache's region-MBR grid")
    p_svc.add_argument("--kernel", choices=KERNELS, default="auto",
                       help="geometry kernel: scalar (paper-faithful "
                            "tree probing), numpy (vectorized columnar), "
                            "auto (an alias of numpy)")
    p_svc.add_argument("--fault-rate", type=float, default=0.0,
                       help="inject seeded page-read failures at this rate")
    p_svc.add_argument("--fault-latency-ms", type=float, default=0.0,
                       help="mean injected latency per faulty read (ms)")
    p_svc.add_argument("--deadline-ms", type=float, default=None,
                       help="per-query deadline budget (degraded regions "
                            "when exhausted)")
    p_svc.add_argument("--max-node-accesses", type=int, default=None,
                       help="per-query node-access budget")
    p_svc.add_argument("--retries", type=int, default=3,
                       help="max attempts per query (1 disables retrying)")
    p_svc.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive failures that trip the breaker "
                            "(0 disables it)")
    p_svc.add_argument("--max-stale", type=int, default=None,
                       help="staleness bound: client cache fallback on "
                            "server failure, and (with --replicas) the "
                            "mutations a serving replica may lag by")
    p_svc.add_argument("--admission-concurrency", type=int, default=0,
                       help="admission gate: max concurrent queries "
                            "(0 disables admission control)")
    p_svc.add_argument("--admission-queue", type=int, default=64,
                       help="admission gate: max queued queries beyond "
                            "the concurrency limit")
    p_svc.add_argument("--retry-budget", type=int, default=0,
                       help="cap total retries per rolling second across "
                            "all queries (0 = uncapped)")
    p_svc.add_argument("--json", action="store_true",
                       help="dump the full stats snapshot as JSON")
    p_svc.add_argument("--out", default=None,
                       help="write the snapshot JSON to a file")
    p_svc.add_argument("--metrics-port", type=int, default=None,
                       help="serve /metrics, /traces and /events on this "
                            "port while the fleet runs (0 = ephemeral)")
    p_svc.add_argument("--serve-seconds", type=float, default=0.0,
                       help="keep the observability endpoint up this long "
                            "after the run (with --metrics-port)")
    p_svc.add_argument("--event-sample", action="append", default=[],
                       metavar="CATEGORY=N",
                       help="keep 1-in-N events of CATEGORY (repeatable), "
                            "e.g. --event-sample query=10")
    p_svc.add_argument("--event-capacity", type=int, default=4096,
                       help="event-log ring size (0 = no-op sink)")
    p_svc.add_argument("--trace-out", default=None,
                       help="write the slowest retained trace as Chrome "
                            "trace_event JSON (Perfetto-loadable)")
    p_svc.add_argument("--slo", action="store_true",
                       help="attach the SLO engine (availability + latency "
                            "objectives) and let burn rates drive brownout")
    p_svc.add_argument("--slo-latency-ms", type=float, default=50.0,
                       help="latency-SLO threshold in ms (with --slo)")
    p_svc.add_argument("--profile", action="store_true",
                       help="enable phase profiling (/profile/flame)")
    p_svc.add_argument("--tail-sample", type=int, default=0, metavar="N",
                       help="tail-based trace sampling: always keep "
                            "slow/errored/degraded/SLO-violating traces, "
                            "1-in-N of the healthy rest (0 = off)")

    p_obs = sub.add_parser(
        "obs", help="inspect a running service's observability endpoint")
    p_obs.add_argument("--url", default="http://127.0.0.1:9464",
                       help="base URL of the observability endpoint")
    p_obs.add_argument("--flame", action="store_true",
                       help="fetch the collapsed-stack flamegraph "
                            "(/profile/flame) and exit")
    what = p_obs.add_subparsers(dest="obs_what", required=False)
    what.add_parser("metrics", help="scrape the Prometheus exposition")
    what.add_parser("snapshot", help="fetch the full stats snapshot")
    what.add_parser("slo", help="fetch burn rates, alerts and brownout")
    what.add_parser("profile", help="fetch the phase-profile table")
    p_tail = what.add_parser("tail", help="tail the structured event log")
    p_tail.add_argument("-n", type=int, default=50)
    p_tail.add_argument("--category", default=None)
    p_tail.add_argument("--trace-id", default=None)
    p_trace = what.add_parser("trace", help="dump one trace's span tree")
    p_trace.add_argument("trace_id")
    p_trace.add_argument("--chrome", action="store_true",
                         help="emit Chrome trace_event JSON instead")
    p_trace.add_argument("--out", default=None,
                         help="write to a file instead of stdout")

    sub.add_parser("demo", help="self-contained demonstration")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "dataset": _cmd_dataset,
        "build": _cmd_build,
        "query": _cmd_query,
        "simulate": _cmd_simulate,
        "service": _cmd_service,
        "obs": _cmd_obs,
        "demo": _cmd_demo,
    }[args.command]
    return handler(args)


def _cmd_dataset(args) -> int:
    if args.kind == "uniform":
        pts = uniform_points(args.n, seed=args.seed)
    elif args.kind == "gr":
        pts = make_greece_like(n=args.n, seed=args.seed or 2003)
    else:
        pts = make_north_america_like(n=args.n, seed=args.seed or 1958)
    np.save(args.out, pts)
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def _cmd_build(args) -> int:
    pts = np.load(args.points)
    tree = bulk_load_str(pts, capacity=args.capacity, fill=args.fill)
    written = save_tree(tree, args.out)
    print(f"built R*-tree: {len(tree)} points, height {tree.height}, "
          f"{tree.num_pages} pages; wrote {written} bytes to {args.out}")
    return 0


def _cmd_query(args) -> int:
    tree = load_tree(args.tree)
    server = LocationServer(tree)
    if args.query_kind == "knn":
        resp = server.answer(KNNRequest((args.x, args.y), k=args.k))
        for e in resp.result:
            print(f"{e.oid}\t{e.x:.6g}\t{e.y:.6g}")
        poly = resp.region.polygon()
        print(f"# validity region: {poly.num_edges} edges, "
              f"area {poly.area():.6g}, "
              f"payload {resp.transfer_bytes()} bytes")
    elif args.query_kind == "window":
        resp = server.answer(WindowRequest((args.x, args.y),
                                           args.width, args.height))
        for e in resp.result:
            print(f"{e.oid}\t{e.x:.6g}\t{e.y:.6g}")
        r = resp.detail.conservative_region
        print(f"# validity rect: [{r.xmin:.6g}, {r.ymin:.6g}, "
              f"{r.xmax:.6g}, {r.ymax:.6g}]")
    elif args.query_kind == "rknn":
        from repro.core.rknn import RKNNRequest
        resp = server.answer(RKNNRequest((args.x, args.y), k=args.k))
        for e in resp.result:
            print(f"{e.oid}\t{e.x:.6g}\t{e.y:.6g}")
        print(f"# {len(resp.result)} reverse neighbours from "
              f"{len(resp.detail.candidates)} candidates, "
              f"safety radius {resp.detail.safety_radius:.6g}")
    elif args.query_kind == "probknn":
        from repro.core.probknn import ProbKNNRequest
        resp = server.answer(ProbKNNRequest(
            (args.x, args.y), uncertainty=args.uncertainty, k=args.k))
        detail = resp.detail
        for e, p, band in zip(resp.result, detail.probabilities,
                              detail.bands):
            print(f"{e.oid}\t{e.x:.6g}\t{e.y:.6g}\t{p:.3f}\t{band}")
        print(f"# validity annulus radius: {resp.region.outer:.6g}")
    else:
        resp = server.answer(RangeRequest((args.x, args.y), args.radius))
        for e in resp.result:
            print(f"{e.oid}\t{e.x:.6g}\t{e.y:.6g}")
        print(f"# validity disk radius: {resp.detail.validity_radius:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    tree = bulk_load_str(uniform_points(args.n, seed=args.seed))
    trajectory = random_waypoint(Rect(0, 0, 1, 1), args.steps,
                                 speed=args.speed, seed=args.seed)
    print(f"{'protocol':<18} {'updates':>8} {'queries':>8} "
          f"{'saving':>8} {'bytes':>10}")
    for report in simulate_knn_protocols(tree, trajectory, k=args.k):
        print(report.row())
    return 0


def _server_trees(server):
    """Every R*-tree a server owns, across replicas and shards."""
    replicas = getattr(server, "replicas", None)
    if replicas is not None:  # replica set: fault every member's disks
        return [t for rep in replicas for t in _server_trees(rep.server)]
    shards = getattr(server, "shards", None)
    if shards is not None:
        return [shard.server.tree for shard in shards]
    return [server.tree]


def _cmd_service(args) -> int:
    import time as _time

    from repro.core.api import QueryBudget
    from repro.obs import (
        EventLog,
        ObservabilityServer,
        SLOConfig,
        SLOEngine,
        write_chrome_trace,
    )
    from repro.service import (
        AdmissionConfig,
        BreakerConfig,
        CacheConfig,
        ContinuousConfig,
        ReplicaConfig,
        ResilienceConfig,
        RetryBudgetConfig,
        RetryPolicy,
        TailSamplingConfig,
        build_service,
    )
    from repro.storage import FaultPlan, inject_faults

    sample = {}
    for spec in args.event_sample:
        category, _, n = spec.partition("=")
        if not n.isdigit() or int(n) < 1:
            print(f"bad --event-sample {spec!r} (want CATEGORY=N)",
                  file=sys.stderr)
            return 2
        sample[category] = int(n)

    budget = None
    if args.deadline_ms is not None or args.max_node_accesses is not None:
        budget = QueryBudget(deadline_ms=args.deadline_ms,
                             max_node_accesses=args.max_node_accesses)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
        breaker=(BreakerConfig(failure_threshold=args.breaker_threshold)
                 if args.breaker_threshold > 0 else None),
        default_budget=budget,
        seed=args.seed,
        retry_budget=(RetryBudgetConfig(max_retries=args.retry_budget)
                      if args.retry_budget > 0 else None),
        admission=(AdmissionConfig(max_concurrency=args.admission_concurrency,
                                   max_queue_depth=args.admission_queue)
                   if args.admission_concurrency > 0 else None),
    )
    cache = None
    if args.cache_capacity > 0:
        cache = CacheConfig(capacity=args.cache_capacity,
                            grid=args.cache_grid)
    replica = None
    if args.replicas > 1:
        replica = ReplicaConfig(replication_lag=args.replication_lag,
                                default_max_stale=args.max_stale)
    slo = None
    if args.slo:
        slo = SLOEngine([
            SLOConfig(name="availability", objective="availability",
                      target=0.999),
            SLOConfig(name="latency", objective="latency", target=0.99,
                      threshold_ms=args.slo_latency_ms),
        ])
    tail = None
    if args.tail_sample > 0:
        tail = TailSamplingConfig(keep_1_in=args.tail_sample,
                                  slow_ms=args.slo_latency_ms)
    service = build_service(
        uniform_points(args.n, seed=args.seed),
        shards=args.shards,
        replicas=args.replicas,
        replica=replica,
        execution=ExecutionConfig(kernel=args.kernel),
        cache=cache,
        buffer_fraction=args.buffer_fraction,
        resilience=resilience,
        events=EventLog(capacity=args.event_capacity, sample=sample),
        continuous=ContinuousConfig(margin=max(1, args.knn_margin)),
        slo=slo,
        tail=tail,
        profile=args.profile,
    )
    server = service.server
    obs = None
    if args.metrics_port is not None:
        obs = ObservabilityServer(service, port=args.metrics_port).start()
        print(f"observability endpoint: {obs.url} "
              f"(/metrics, /traces, /events, /snapshot, /slo, "
              f"/profile/flame, /healthz, /readyz)")
    faulty = args.fault_rate > 0.0 or args.fault_latency_ms > 0.0
    if faulty:
        plan = FaultPlan(
            seed=args.seed,
            read_failure_rate=args.fault_rate,
            latency_mean_s=args.fault_latency_ms / 1e3,
            latency_rate=1.0 if args.fault_latency_ms > 0.0 else 0.0,
        )
        for tree in _server_trees(server):
            inject_faults(tree, plan)
    base = FleetConfig()
    shares = (base.knn_share + base.window_share
              + args.rknn_share + args.probknn_share)
    if shares > 1.0:
        print(f"--rknn-share + --probknn-share leave the query mix "
              f"over-subscribed ({shares:.2f} > 1 with the default "
              f"knn/window shares)", file=sys.stderr)
        return 2
    fleet = ClientFleet(service, FleetConfig(
        num_clients=args.clients,
        rknn_share=args.rknn_share,
        probknn_share=args.probknn_share,
        probknn_uncertainty=args.probknn_uncertainty,
        k=args.k,
        speed=args.speed,
        incremental_share=args.incremental_share,
        subscription_share=args.subscription_share,
        seed=args.seed,
        max_stale=args.max_stale,
        continue_on_error=faulty,
    ))
    report = fleet.run(args.ticks, max_workers=args.threads)
    stats = report.stats
    print(f"{report.num_clients} clients x {report.ticks} ticks "
          f"({args.threads} threads): {stats.server_queries} server queries, "
          f"{stats.cache_answers} cache answers "
          f"({report.cache_hit_ratio:.0%} saved), "
          f"{stats.bytes_received} bytes on the wire")
    cache = report.snapshot.get("cache")
    if cache:
        print(f"  server cache: {cache['hits']} hits / "
              f"{cache['hits'] + cache['misses']} probes "
              f"({cache['hit_ratio']:.0%} hit ratio), "
              f"{cache['size']}/{cache['capacity']} entries, "
              f"{cache['evictions']} evictions")
    shards = report.snapshot.get("shards")
    if shards:
        accesses = [s["node_accesses"] for s in shards]
        print(f"  shards: {len(shards)} live, "
              f"node accesses min {min(accesses)} / "
              f"max {max(accesses)} / total {sum(accesses)}")
    continuous = report.snapshot.get("continuous")
    if continuous:
        print(f"  subscriptions: {continuous['subscriptions']} live "
              f"({continuous['broken']} broken), "
              f"{continuous['pushes']} pushes "
              f"({continuous['patches']} patches / "
              f"{continuous['invalidates']} invalidations, "
              f"{continuous['coalesced']} coalesced), moves "
              f"{continuous['moves_patched']} patched / "
              f"{continuous['moves_refetched']} re-queried")
    replica_set = report.snapshot.get("replica_set")
    if replica_set:
        rows = replica_set["replicas"]
        states = ", ".join(f"r{r['rid']}:{r['state']}" for r in rows)
        print(f"  replicas: {len(rows)} ({states}), "
              f"{replica_set['failovers']} failovers, "
              f"{replica_set['stale_served']} stale served, "
              f"{replica_set['stale_skips']} stale skips")
    admission = report.snapshot.get("admission")
    if admission:
        rejected = (admission["rejected_queue_full"]
                    + admission["rejected_deadline"]
                    + admission["rejected_timeout"])
        print(f"  admission: {admission['accepted']} accepted, "
              f"{rejected} rejected, level {admission['level']} "
              f"(load {admission['load_factor']:.2f})")
    res = report.snapshot["resilience"]
    if faulty or res["retries"] or res["degraded"] or stats.stale_answers:
        breaker = res["breaker"] or {}
        print(f"  resilience: {res['retries']} retries, "
              f"{res['errors']} errors, {res['degraded']} degraded "
              f"({res['degraded_ratio']:.1%}), "
              f"{stats.stale_answers} stale cache answers, "
              f"{report.errors} client errors, "
              f"breaker {breaker.get('state', 'off')} "
              f"({breaker.get('trips', 0)} trips, "
              f"{breaker.get('recoveries', 0)} recoveries)")
    for kind in sorted(report.mix):
        h = service.metrics.histogram_merged("service.latency_ms",
                                             query_kind=kind)
        if h["count"]:
            print(f"  {kind:<7} p50 {h['p50']:.2f} ms   "
                  f"p95 {h['p95']:.2f} ms   p99 {h['p99']:.2f} ms   "
                  f"({h['count']} queries)")
    slo_snap = report.snapshot.get("slo")
    if slo_snap:
        for name, row in sorted(slo_snap["slos"].items()):
            burns = ", ".join(f"{w}={b:.2f}"
                              for w, b in sorted(row["burn_rate"].items()))
            print(f"  slo {name}: burn [{burns}], budget "
                  f"{row['budget_remaining']:.1%} left, "
                  f"fast_alert={row['fast_alert']}, "
                  f"brownout={slo_snap['brownout']}")
    ev = service.events.stats()
    if ev["emitted"]:
        per_cat = ", ".join(f"{c}={n}"
                            for c, n in sorted(ev["emitted"].items()))
        print(f"  events: {sum(ev['emitted'].values())} emitted "
              f"({per_cat}), {ev['retained']} retained")
    if args.trace_out:
        traces = service.recent_traces()
        if traces:
            slowest = max(traces, key=lambda t: t.duration_ms)
            write_chrome_trace(slowest, args.trace_out)
            print(f"wrote Chrome trace of {slowest.trace_id} "
                  f"({slowest.kind}, {slowest.duration_ms:.2f} ms) to "
                  f"{args.trace_out}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.snapshot, fh, indent=2, sort_keys=True)
        print(f"wrote snapshot to {args.out}")
    elif args.json:
        print(json.dumps(report.snapshot, indent=2, sort_keys=True))
    if obs is not None:
        if args.serve_seconds > 0:
            print(f"serving for {args.serve_seconds:g}s "
                  "(Ctrl-C to stop early) ...")
            try:
                _time.sleep(args.serve_seconds)
            except KeyboardInterrupt:
                pass
        obs.stop()
    close = getattr(server, "close", None)
    if close is not None:  # sharded servers own worker pools
        close()
    return 0


def _cmd_obs(args) -> int:
    from urllib.error import URLError
    from urllib.parse import quote, urlencode
    from urllib.request import urlopen

    def fetch(path: str, params: Optional[dict] = None) -> str:
        url = args.url.rstrip("/") + path
        if params:
            url += "?" + urlencode(
                {k: v for k, v in params.items() if v is not None})
        try:
            with urlopen(url, timeout=10.0) as resp:
                return resp.read().decode("utf-8")
        except URLError as exc:
            print(f"cannot reach {url}: {exc}", file=sys.stderr)
            raise SystemExit(1)

    if args.obs_what is None:
        if not args.flame:
            print("repro obs: give a subcommand (metrics, snapshot, slo, "
                  "profile, tail, trace) or --flame", file=sys.stderr)
            return 2
        sys.stdout.write(fetch("/profile/flame"))
    elif args.obs_what == "metrics":
        sys.stdout.write(fetch("/metrics"))
    elif args.obs_what == "snapshot":
        sys.stdout.write(fetch("/snapshot"))
    elif args.obs_what == "slo":
        sys.stdout.write(fetch("/slo"))
    elif args.obs_what == "profile":
        sys.stdout.write(fetch("/profile"))
    elif args.obs_what == "tail":
        sys.stdout.write(fetch("/events", {
            "n": args.n, "category": args.category,
            "trace_id": args.trace_id}))
    else:  # trace
        path = f"/traces/{quote(args.trace_id)}"
        if args.chrome:
            path += "/chrome"
        body = fetch(path)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(body)
            print(f"wrote {path} to {args.out}")
        else:
            sys.stdout.write(body)
    return 0


def _cmd_demo(args) -> int:
    server = LocationServer.from_points(uniform_points(10_000, seed=1))
    client = MobileClient(server)
    pos = [0.5, 0.5]
    for _ in range(100):
        client.knn(tuple(pos), k=1)
        pos[0] += 0.0005
    stats = client.stats
    print(f"100 position updates, {stats.server_queries} server queries "
          f"({stats.query_saving:.0%} answered from validity regions)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
