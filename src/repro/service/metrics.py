"""Thread-safe dimensional metrics primitives for the query service.

One :class:`MetricsRegistry` is shared by every layer of a running
service: the server reports per-query latencies and bytes on the wire,
clients report cache hits and misses, and the disk/buffer layers are
folded in when a snapshot is taken.  Everything a snapshot returns is
plain JSON-serializable data, so benchmark harnesses and the CLI can
dump it directly.

Metrics are **dimensional**: every accessor takes an optional
``labels`` mapping (``registry.counter("service.queries",
labels={"query_kind": "knn"})``), and each distinct (family, label set)
pair is an independent time series.  Series are stored under a
canonical key rendered by :func:`series_key` —
``service.queries{query_kind="knn"}`` — which is exactly the
Prometheus exposition syntax, so exporters can recover (family,
labels) with :func:`parse_series_key` instead of pattern-matching
dotted suffixes.  A family registered as one kind (counter / gauge /
histogram) cannot be re-registered as another, regardless of labels.

The primitives are deliberately small:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Gauge` — a last-write-wins float;
* :class:`Histogram` — a bounded sample reservoir with exact
  count/sum/min/max, approximate percentiles (p50/p95/p99), and —
  when constructed with ``buckets`` — exact cumulative Prometheus
  histogram bucket counts.

The histogram keeps at most ``max_samples`` raw observations; once
full, new observations overwrite pseudo-randomly chosen slots (a
deterministic multiplicative hash of the observation count), which
keeps memory bounded under sustained load while remaining reproducible
run to run.  Bucket counts are exact regardless of reservoir overflow;
percentiles are estimated from the reservoir, and snapshots report
``retained_samples`` next to ``count`` so consumers can tell exact
percentiles (``retained_samples == count``) from estimates.

Reads never sort under a lock: a snapshot copies each histogram's raw
state (moments, bucket counts, a packed copy of the reservoir) under
the data lock and sorts the copies after releasing it, so a scrape of
full reservoirs does not stall the queries that update metrics.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
from array import array
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "series_key",
    "parse_series_key",
]

#: Knuth's multiplicative hash constant, used to pick reservoir slots.
_HASH = 2654435761

#: Default bucket upper bounds (milliseconds) for latency histograms.
#: Roughly log-spaced from sub-millisecond cache hits to multi-second
#: degraded tails; ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)

_LABEL_KEY = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SERIES_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
            .replace('"', r'\"').replace("\n", r"\n"))


def _unescape_label_value(value: str) -> str:
    return (value.replace(r"\n", "\n")
            .replace(r'\"', '"').replace(r"\\", "\\"))


def series_key(name: str, labels: Optional[Mapping[str, object]] = None) -> str:
    """Canonical storage key for one series of a metric family.

    ``series_key("service.queries", {"query_kind": "knn"})`` →
    ``'service.queries{query_kind="knn"}'``.  Label keys are sorted, so
    equal label sets always produce the same key; an empty / missing
    label set yields the bare family name.
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        if not _LABEL_KEY.match(key):
            raise ValueError(f"invalid label key {key!r}")
        parts.append(f'{key}="{_escape_label_value(str(labels[key]))}"')
    return name + "{" + ",".join(parts) + "}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key`: ``key`` → ``(family, labels)``."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    family = key[:brace]
    body = key[brace + 1:key.rfind("}")]
    labels = {m.group(1): _unescape_label_value(m.group(2))
              for m in _SERIES_LABEL.finditer(body)}
    return family, labels


def _labels_match(labels: Mapping[str, str], match: Mapping[str, object]) -> bool:
    return all(labels.get(k) == str(v) for k, v in match.items())


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of sorted ``ordered`` (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1,
                       int(round(p / 100.0 * (len(ordered) - 1))))]


def _summary(count: int, total: float, lo: Optional[float],
             hi: Optional[float], samples: Iterable[float]
             ) -> Dict[str, object]:
    """The snapshot fields every histogram read reports.

    Sorts ``samples``: callers pass a copy and hold no lock.
    """
    ordered = sorted(samples)
    return {
        "count": count,
        "retained_samples": len(ordered),
        "sum": total,
        "mean": total / count if count else 0.0,
        "min": lo if lo is not None else 0.0,
        "max": hi if hi is not None else 0.0,
        "p50": _nearest_rank(ordered, 50.0),
        "p95": _nearest_rank(ordered, 95.0),
        "p99": _nearest_rank(ordered, 99.0),
    }


class Counter:
    """A monotonically increasing counter.

    ``lock`` lets a registry share one data lock across all its
    metrics, which is what makes a registry snapshot a consistent
    point-in-time read; standalone counters default to a private lock.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None,
                 labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({series_key(self.name, self.labels)}={self._value})"


class Gauge:
    """A value that can go up and down (buffer occupancy, fleet size…)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None,
                 labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({series_key(self.name, self.labels)}={self._value})"


def bucket_bound_str(bound: float) -> str:
    """Prometheus ``le`` rendering of a bucket upper bound (``+Inf`` aware)."""
    if bound == float("inf"):
        return "+Inf"
    return format(bound, "g")


class Histogram:
    """A sample distribution with exact moments and quantile estimates.

    When ``buckets`` (a strictly ascending sequence of upper bounds) is
    given, the histogram additionally keeps exact cumulative bucket
    counts in the native Prometheus shape; an implicit ``+Inf`` bucket
    always closes the set.
    """

    __slots__ = ("name", "labels", "_samples", "_lock", "_max_samples",
                 "_bounds", "_bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, max_samples: int = 65536,
                 lock: Optional[threading.Lock] = None,
                 labels: Optional[Mapping[str, str]] = None,
                 buckets: Optional[Sequence[float]] = None):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        #: Packed doubles: 8 bytes a sample, not a float object each.
        self._samples = array("d")
        self._max_samples = max_samples
        self._lock = lock if lock is not None else threading.Lock()
        if buckets is not None:
            bounds = [float(b) for b in buckets if b != float("inf")]
            if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
                raise ValueError("buckets must be strictly ascending and "
                                 "non-empty")
            self._bounds: Optional[List[float]] = bounds
            # One non-cumulative count per bound, plus the +Inf overflow.
            self._bucket_counts: Optional[List[int]] = [0] * (len(bounds) + 1)
        else:
            self._bounds = None
            self._bucket_counts = None
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def bucket_bounds(self) -> Optional[Tuple[float, ...]]:
        return tuple(self._bounds) if self._bounds is not None else None

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            count = self.count = self.count + 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if self._bounds is not None:
                self._bucket_counts[bisect.bisect_left(self._bounds, value)] += 1
            samples = self._samples
            if len(samples) < self._max_samples:
                samples.append(value)
            else:
                samples[(count * _HASH) % self._max_samples] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100) of the retained samples.

        Nearest-rank on the sorted reservoir; 0.0 when nothing was
        recorded yet.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        with self._lock:
            samples = self._samples[:]
        return _nearest_rank(sorted(samples), p)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            raw = self._raw_locked()
        return self._snapshot_of(raw)

    def _raw_locked(self) -> Tuple:
        """A copy of the raw state; the caller must hold this
        histogram's lock.  Copying is a memcpy of the packed reservoir,
        so the lock is held for microseconds, not for a sort."""
        counts = (list(self._bucket_counts)
                  if self._bucket_counts is not None else None)
        return (self.count, self.total, self.min, self.max, counts,
                self._samples[:])

    def _snapshot_of(self, raw: Tuple) -> Dict[str, object]:
        """The snapshot of a :meth:`_raw_locked` copy (no lock needed)."""
        count, total, lo, hi, counts, samples = raw
        snap = _summary(count, total, lo, hi, samples)
        if self._bounds is not None:
            snap["buckets"] = self._cumulative(counts, count)
        return snap

    def _cumulative(self, counts: List[int], count: int) -> Dict[str, int]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self._bounds, counts):
            running += n
            cumulative[bucket_bound_str(bound)] = running
        cumulative["+Inf"] = count
        return cumulative

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({series_key(self.name, self.labels)}, n={self.count})"


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges and histograms.

    Family names are free-form dotted strings (``service.latency_ms``);
    the registry imposes no schema, but a family registered as one kind
    cannot be re-registered as another — even under different labels.
    Each distinct (family, label set) is its own series, stored under
    its canonical :func:`series_key`.

    Every metric the registry creates shares one **data lock**, so
    :meth:`snapshot` is a single consistent point-in-time read: no
    update can land between reading one metric and the next, and
    derived cross-metric values (hit ratios, per-kind breakdowns) are
    computed over numbers that were all true at the same instant.

    Lookups are memoized per kind, keyed by the family name and the
    label items in the order they were passed: a repeated lookup is one
    dict probe, without rendering the series key or taking a lock.  The
    first lookup of each (family, label order) takes the validating
    path and fills the memo.  Only label sets whose values are all
    strings are memoized, because values that compare equal can render
    differently (``1``, ``1.0`` and ``True`` are one dict key but three
    series); other values take the validating path every time.
    """

    def __init__(self):
        #: Guards the name→metric dicts (registration structure).
        self._lock = threading.Lock()
        #: Guards every registered metric's data (shared by them all).
        self._data_lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Family name → "counter" | "gauge" | "histogram".
        self._kinds: Dict[str, str] = {}
        #: Lookup memos: name, or (name, label items as passed) → metric.
        #: Read without the lock; filled under it.
        self._counter_memo: Dict[object, Counter] = {}
        self._gauge_memo: Dict[object, Gauge] = {}
        self._histogram_memo: Dict[object, Histogram] = {}

    # ------------------------------------------------------------------
    # get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str,
                labels: Optional[Mapping[str, object]] = None) -> Counter:
        try:
            return self._counter_memo[
                (name, tuple(labels.items())) if labels else name]
        except (KeyError, TypeError):  # first lookup, or unhashable labels
            return self._register(
                self._counters, self._counter_memo, "counter", name, labels,
                lambda strs: Counter(name, lock=self._data_lock,
                                     labels=strs))

    def gauge(self, name: str,
              labels: Optional[Mapping[str, object]] = None) -> Gauge:
        try:
            return self._gauge_memo[
                (name, tuple(labels.items())) if labels else name]
        except (KeyError, TypeError):
            return self._register(
                self._gauges, self._gauge_memo, "gauge", name, labels,
                lambda strs: Gauge(name, lock=self._data_lock, labels=strs))

    def histogram(self, name: str, max_samples: int = 65536,
                  labels: Optional[Mapping[str, object]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get-or-create one histogram series.

        ``buckets`` applies on first creation of the series; subsequent
        lookups return the existing series unchanged, so every series
        of a family should be created with the same bucket layout.
        """
        try:
            return self._histogram_memo[
                (name, tuple(labels.items())) if labels else name]
        except (KeyError, TypeError):
            return self._register(
                self._histograms, self._histogram_memo, "histogram", name,
                labels,
                lambda strs: Histogram(name, max_samples,
                                       lock=self._data_lock, labels=strs,
                                       buckets=buckets))

    def _register(self, home: Dict, memo: Dict, kind: str, name: str,
                  labels: Optional[Mapping[str, object]], make):
        """The validating get-or-create path behind a memo miss."""
        key = series_key(name, labels)
        with self._lock:
            self._check_kind(name, kind)
            metric = home.get(key)
            if metric is None:
                metric = home[key] = make(
                    {k: str(v) for k, v in (labels or {}).items()})
            if not labels:
                memo[name] = metric
            elif all(type(v) is str for v in labels.values()):
                memo[(name, tuple(labels.items()))] = metric
            return metric

    def _check_kind(self, name: str, kind: str) -> None:
        registered = self._kinds.get(name)
        if registered is None:
            self._kinds[name] = kind
        elif registered != kind:
            raise ValueError(
                f"metric family {name!r} already registered as a "
                f"{registered}, not a {kind}")

    # ------------------------------------------------------------------
    # family aggregation
    # ------------------------------------------------------------------
    def counter_total(self, name: str, **match: object) -> int:
        """Sum of a counter family across label sets matching ``match``.

        ``counter_total("service.queries", query_kind="knn")`` sums
        every ``service.queries`` series whose labels include
        ``query_kind="knn"``; with no ``match`` it sums the whole
        family (including the unlabeled series, when present).
        """
        with self._lock:
            series = [c for c in self._counters.values() if c.name == name]
        with self._data_lock:
            return sum(c._value for c in series
                       if _labels_match(c.labels, match))

    def histogram_merged(self, name: str, **match: object) -> Dict[str, object]:
        """One merged snapshot of a histogram family across label sets.

        Counts, sums and bucket counts add exactly; min/max combine
        exactly; percentiles are re-estimated from the concatenated
        reservoirs.  Useful for reading e.g. per-kind latency
        regardless of the ``degraded`` dimension.
        """
        with self._lock:
            series = [h for h in self._histograms.values()
                      if h.name == name and _labels_match(h.labels, match)]
        with self._data_lock:
            raws = [h._raw_locked() for h in series]
        samples = array("d")
        count = 0
        total = 0.0
        lo: Optional[float] = None
        hi: Optional[float] = None
        merged_buckets: Dict[str, int] = {}
        any_buckets = False
        for h, (n, h_total, h_min, h_max, counts, h_samples) in zip(series,
                                                                    raws):
            samples.extend(h_samples)
            count += n
            total += h_total
            if h_min is not None:
                lo = h_min if lo is None else min(lo, h_min)
            if h_max is not None:
                hi = h_max if hi is None else max(hi, h_max)
            if counts is not None:
                any_buckets = True
                for le, c in h._cumulative(counts, n).items():
                    merged_buckets[le] = merged_buckets.get(le, 0) + c
        merged = _summary(count, total, lo, hi, samples)
        if any_buckets:
            merged["buckets"] = merged_buckets
        return merged

    def family_labels(self, name: str) -> List[Dict[str, str]]:
        """Every label set registered for a family, in creation order."""
        with self._lock:
            for home in (self._counters, self._gauges, self._histograms):
                found = [dict(m.labels) for m in home.values()
                         if m.name == name]
                if found:
                    return found
        return []

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Everything, as one consistent JSON-serializable snapshot.

        Keys are canonical series keys (bare family name for unlabeled
        series, ``family{k="v"}`` for labeled ones — parse with
        :func:`parse_series_key`).  All values are read under the
        shared data lock in a single critical section, so the returned
        numbers are mutually consistent (e.g. a hits counter never
        outruns its probes counter within one snapshot).  That section
        only copies; histogram reservoirs are sorted after it.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        with self._data_lock:
            counter_values = {n: c._value for n, c in counters}
            gauge_values = {n: g._value for n, g in gauges}
            raws = [h._raw_locked() for _, h in histograms]
        return {
            "counters": counter_values,
            "gauges": gauge_values,
            "histograms": {n: h._snapshot_of(raw)
                           for (n, h), raw in zip(histograms, raws)},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every registered metric (a fresh session)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._kinds.clear()
            self._counter_memo.clear()
            self._gauge_memo.clear()
            self._histogram_memo.clear()
