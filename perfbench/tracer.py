"""Per-layer tracing by outside wrappers.

The traced run wraps the public entry point of every layer -- where its
caller looks it up, so a function imported by name is wrapped in the
importing module -- records one span per call, and restores the
originals afterwards.  Nothing inside the program is instrumented.

A span's self time is its duration minus the union of its children's
intervals.  A span's parent is the innermost open span on its thread;
a span opened on a thread with no open span (a shard fan-out pool
worker) takes the innermost open span of the load-generating thread,
which is blocked waiting for that worker.  That rule is exact here
because one thread generates all load.

A target that no longer exists is reported as absent: the metrics it
feeds come out as ``None`` instead of the run failing.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

_MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module[.owner].attr`` spans as ``span``."""

    module: str
    owner: Optional[str]
    attr: str
    span: str

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


#: Every wrapped entry point, by layer.  The core layer is wrapped at
#: the per-kind computations (as server.py, rknn.py and probknn.py look
#: them up), which both the single-tree and the per-shard paths reach.
TARGETS: Tuple[Target, ...] = tuple(Target(*t) for t in (
    ("repro.core.client", "MobileClient", "knn", "client"),
    ("repro.core.client", "MobileClient", "window", "client"),
    ("repro.core.client", "MobileClient", "range", "client"),
    ("repro.core.client", "MobileClient", "rknn", "client"),
    ("repro.core.client", "MobileClient", "probknn", "client"),
    ("repro.core.client", "CacheEntry", "answers", "client.check"),
    ("repro.service.service", "QueryService", "answer", "service"),
    ("repro.service.tracing", "TraceBuffer", "append", "obs"),
    ("repro.obs.events", "EventLog", "emit", "obs"),
    ("repro.obs.profile", "PhaseProfiler", "record", "obs"),
    ("repro.obs.slo", "SLOEngine", "observe", "obs"),
    ("repro.service.admission", "AdmissionController", "try_acquire",
     "admission"),
    ("repro.service.cache", "ValidityCache", "probe", "cache.probe"),
    ("repro.service.cache", "ValidityCache", "admit", "cache.admit"),
    ("repro.service.cache", "ValidityCache", "invalidate_mutation",
     "cache.invalidate"),
    ("repro.service.shard", "ShardedServer", "answer", "shard"),
    ("repro.service.replica", "ReplicaSet", "answer", "replica"),
    ("repro.service.replica", "ReplicaSet", "insert_object",
     "replica.replicate"),
    ("repro.service.replica", "ReplicaSet", "delete_object",
     "replica.replicate"),
    ("repro.service.replica", None, "shrunk_stale_region", "staleness"),
    ("repro.service.continuous", "SubscriptionHub", "notify",
     "continuous.notify"),
    ("repro.service.continuous", "SubscriptionHub", "move",
     "continuous.move"),
    ("repro.core.server", None, "compute_nn_validity", "core.knn"),
    ("repro.core.server", None, "compute_window_validity", "core.window"),
    ("repro.core.server", None, "compute_range_validity", "core.range"),
    ("repro.core.rknn", None, "compute_rknn_validity", "core.rknn"),
    ("repro.core.probknn", None, "compute_probknn_validity", "core.probknn"),
    ("repro.kernel.columns", "PointColumns", "from_tree", "kernel.columns"),
))


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


# ----------------------------------------------------------------------
# per-span probes: (before(args) -> state, after(state, args, result,
# error, counts) -> None).  They read only what the call's arguments and
# result expose, never the program's internals.
# ----------------------------------------------------------------------
def _count(counts: Dict[str, float], key: str, amount: float = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _after_check(state, args, result, error, counts) -> None:
    if result:
        _count(counts, "client.check.true")


def _after_admission(state, args, result, error, counts) -> None:
    if error is not None:
        if type(error).__name__ == "AdmissionRejectedError":
            _count(counts, "admission.rejected")
    else:
        _count(counts, "admission.wait_ms", float(result))


def _after_probe(state, args, result, error, counts) -> None:
    if result is not None:
        _count(counts, "cache.probe.hits")


def _evictions(args):
    return args[0].evictions


def _after_admit(state, args, result, error, counts) -> None:
    _count(counts, "cache.evictions", args[0].evictions - state)


def _cache_size(args):
    return len(args[0])


def _after_invalidate(state, args, result, error, counts) -> None:
    if error is None:
        _count(counts, "cache.invalidate.entries", state)
        _count(counts, "cache.invalidate.survivors", state - int(result))


def _after_shard(state, args, result, error, counts) -> None:
    if error is None:
        queried = getattr(result.detail, "shards_queried", 0)
        pruned = getattr(result.detail, "shards_pruned", 0)
        _count(counts, "shard.queried", queried)
        _count(counts, "shard.pruned", pruned)


def _after_replica(state, args, result, error, counts) -> None:
    if error is None and getattr(result, "staleness", 0):
        _count(counts, "replica.stale_served")


def _after_staleness(state, args, result, error, counts) -> None:
    if error is None and result is None:
        _count(counts, "staleness.unservable")


def _move_state(args):
    sub = args[1]
    return sub.moves_patched, sub.moves_refetched


def _after_move(state, args, result, error, counts) -> None:
    sub = args[1]
    _count(counts, "continuous.move.patched", sub.moves_patched - state[0])
    _count(counts, "continuous.move.refetched",
           sub.moves_refetched - state[1])


def _after_knn(state, args, result, error, counts) -> None:
    if error is None:
        _count(counts, "core.knn.tp_queries", result.num_tp_queries)
        _count(counts, "core.knn.clip_ms", result.clip_seconds * 1e3)
        influence = result.influence_set
        if callable(influence):
            influence = influence()
        _count(counts, "core.knn.influence", len(influence))


_PROBES: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "client.check": (None, _after_check),
    "admission": (None, _after_admission),
    "cache.probe": (None, _after_probe),
    "cache.admit": (_evictions, _after_admit),
    "cache.invalidate": (_cache_size, _after_invalidate),
    "shard": (None, _after_shard),
    "replica": (None, _after_replica),
    "staleness": (None, _after_staleness),
    "continuous.move": (_move_state, _after_move),
    "core.knn": (None, _after_knn),
}


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.absent: List[Target] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._next = 0
        self._lock = threading.Lock()

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        """Wrap every target; the calling thread is the load generator."""
        self._local.stack = self._main_stack
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target)
                continue
            owner = (module if target.owner is None
                     else getattr(module, target.owner, None))
            if owner is None or target.attr not in vars(owner):
                self.absent.append(target)
                continue
            original = vars(owner)[target.attr]
            setattr(owner, target.attr, self._wrap(original, target.span))
            self._saved.append((owner, target.attr, original))

    def restore(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def _wrap(self, original, name: str):
        if isinstance(original, (classmethod, staticmethod)):
            inner = self._wrap_function(original.__func__, name)
            return type(original)(inner)
        return self._wrap_function(original, name)

    def _wrap_function(self, fn, name: str):
        before, after = _PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state(before, args)
            span = tracer._open(name)
            error = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(span)
                if after is not None:
                    tracer._probe(after, state, args, result, error)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _state(self, before, args):
        if before is None:
            return None
        try:
            return before(args)
        except Exception:
            return None

    def _probe(self, after, state, args, result, error) -> None:
        """Run a probe; a probe that breaks never breaks the call."""
        with self._lock:
            try:
                after(state, args, result, error, self.counts)
            except Exception:
                _count(self.counts, "tracer.probe_errors")

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            main = self._main_stack
            parent = main[-1].sid if main else None
        with self._lock:
            sid = self._next
            self._next += 1
        span = Span(sid, name, perf_counter(), parent=parent)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- folding -------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}``."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            covered = _union(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.sid, ())])
            calls, total = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1,
                              total + (span.end - span.start) - covered)
        return out

    def absent_spans(self) -> set:
        """Span names with at least one target missing."""
        return {t.span for t in self.absent}


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= lo or hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def installed_wrappers() -> List[str]:
    """Targets currently holding a tracer wrapper (empty after a run)."""
    left = []
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            continue
        owner = (module if target.owner is None
                 else getattr(module, target.owner, None))
        value = vars(owner).get(target.attr) if owner is not None else None
        if isinstance(value, (classmethod, staticmethod)):
            value = value.__func__
        if getattr(value, _MARK, False):
            left.append(target.label)
    return left
