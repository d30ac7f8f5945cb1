"""Metrics registry: counters, gauges, and histograms for the engine.

Absorbs and supersedes the scattered per-query counters in
:mod:`repro.engine.stats`: a :class:`MetricsRegistry` accumulates
*across* queries (``ExecStats`` stays the per-query snapshot behind
``Database.last_stats``).  The engine feeds it from two directions:

* ``Database`` calls :meth:`MetricsRegistry.record_exec_stats` after
  every query, folding the ExecStats counters into the registry, along
  with layout-dispatch counts derived from the simulated-SIMD
  :class:`repro.sets.cost.OpCounter`.
* hot paths (interpretation's intersection loop, the compiled runtime
  helpers) hold ``config.metrics`` — ``None`` unless enabled, so the
  disabled cost is one ``is not None`` check — and observe
  intersection sizes directly.

Every instrument optionally carries a **labels** dimension
(``registry.inc("queries", labels={"mode": "compiled"})``): one logical
metric fans out into one series per distinct label set, the way the
telemetry hub (:mod:`repro.obs.telemetry`) and the OpenMetrics
exposition (:mod:`repro.obs.openmetrics`) expect, without mangling
label values into metric names.  Unlabeled calls are unchanged and
keep their plain-name series.

Registries serialize to a plain-data form (:meth:`MetricsRegistry.
to_state`) that merges losslessly into another registry
(:meth:`MetricsRegistry.merge_state`) — how the telemetry hub folds
per-query snapshots into process-lifetime series.

Registries are **thread-safe**: a single re-entrant ``lock`` guards
instrument creation and every mutator, because the query service
(:mod:`repro.serve`) updates one registry from both its event loop and
its executor thread.  Callers holding memoized instrument objects (the
telemetry hub's hot path) must take ``registry.lock`` around direct
instrument mutation — ``Counter.inc`` itself stays lock-free so the
single-threaded engine paths pay nothing extra.

Everything is process-local and allocation-light; no external
dependencies.
"""

import math
import threading

#: Power-of-four upper bounds for size-like histograms (set
#: cardinalities, lane ops): 1, 4, 16, ... ~1.07e9.
SIZE_BUCKETS = tuple(4 ** i for i in range(16))

#: Upper bounds (seconds) for latency histograms: 1 µs .. ~100 s.
TIME_BUCKETS = tuple(1e-6 * (10 ** (i / 2.0)) for i in range(17))


def labels_key(labels):
    """Canonical tuple form of a labels mapping (sorted ``(k, v)``
    pairs with string values); ``None``/empty becomes ``()``."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name, labels=()):
    """Display key of one series: the bare name, or
    ``name{k=v,...}`` for labeled series.  Used only for dict keys in
    snapshots and ``describe()`` — structured labels stay available on
    the instrument itself (``instrument.labels``)."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % pair for pair in labels))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = tuple(labels)
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """Last-set value (e.g. cache sizes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name, labels=()):
        self.name = name
        self.labels = tuple(labels)
        self.value = 0

    def set(self, value):
        self.value = value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name, buckets=SIZE_BUCKETS, labels=()):
        self.name = name
        self.labels = tuple(labels)
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value):
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Interpolated quantile (0 < q < 1) from the bucket counts.

        Linear interpolation inside the winning bucket, the way
        Prometheus' ``histogram_quantile`` estimates from cumulative
        ``le`` buckets — exact min/max clamp the ends, so p0/p100
        degenerate gracefully.  Returns ``None`` on an empty histogram.
        """
        if not self.count:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[i - 1] if i > 0 else \
                    min(self.minimum, self.buckets[0] if self.buckets
                        else self.minimum)
                upper = self.buckets[i] if i < len(self.buckets) \
                    else self.maximum
                lower = max(lower, self.minimum) if i == 0 else lower
                upper = min(upper, self.maximum)
                if upper <= lower:
                    return float(upper)
                fraction = (rank - cumulative) / bucket_count
                return float(lower + (upper - lower) * fraction)
            cumulative += bucket_count
        return float(self.maximum)

    def merge(self, counts, total, count, minimum, maximum, buckets=None):
        """Fold another histogram's raw state in.

        With matching bucket bounds counts add elementwise; mismatched
        bounds re-bucket each foreign bucket's count at its upper bound
        (the overflow bucket lands at the foreign maximum).
        """
        if not count:
            return
        if buckets is None or tuple(buckets) == self.buckets:
            for i, c in enumerate(counts):
                self.counts[i] += c
        else:
            bounds = tuple(buckets) + (maximum,)
            for bound, c in zip(bounds, counts):
                if not c:
                    continue
                index = 0
                for own in self.buckets:
                    if bound <= own:
                        break
                    index += 1
                self.counts[index] += c
        self.count += count
        self.total += total
        if minimum < self.minimum:
            self.minimum = minimum
        if maximum > self.maximum:
            self.maximum = maximum

    def snapshot(self):
        """Plain-dict view.  The bucket list always has the *full*,
        stable shape — one entry per configured bound plus the overflow
        bucket — so snapshots of the same histogram diff cleanly and
        exposition formats get every cumulative bucket (empty buckets
        included)."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": {
                ("<=%g" % bound if i < len(self.buckets) else "inf"):
                    self.counts[i]
                for i, bound in enumerate(self.buckets + (math.inf,))
            },
        }


class MetricsRegistry:
    """Named counters/gauges/histograms, created on first use.

    ``enabled`` gates every mutation so a disabled registry can stay
    attached without cost; the engine additionally keeps
    ``config.metrics`` as ``None`` when disabled so hot paths pay only
    an ``is not None`` check.

    Instruments live in plain dicts keyed by :func:`series_key` — the
    bare metric name for unlabeled series, ``name{k=v}`` for labeled
    ones — and each instrument keeps its structured ``name`` and
    ``labels`` so downstream consumers never parse keys.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        #: Guards instrument creation and every mutator.  Re-entrant:
        #: ``record_exec_stats`` funnels through ``inc``/``observe``.
        self.lock = threading.RLock()
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    # -- instrument access --------------------------------------------------

    def counter(self, name, labels=None):
        key = series_key(name, labels_key(labels))
        with self.lock:
            counter = self.counters.get(key)
            if counter is None:
                counter = self.counters[key] = Counter(name,
                                                       labels_key(labels))
        return counter

    def gauge(self, name, labels=None):
        key = series_key(name, labels_key(labels))
        with self.lock:
            gauge = self.gauges.get(key)
            if gauge is None:
                gauge = self.gauges[key] = Gauge(name, labels_key(labels))
        return gauge

    def histogram(self, name, buckets=SIZE_BUCKETS, labels=None):
        key = series_key(name, labels_key(labels))
        with self.lock:
            histogram = self.histograms.get(key)
            if histogram is None:
                histogram = self.histograms[key] = Histogram(
                    name, buckets, labels_key(labels))
        return histogram

    # -- recording ----------------------------------------------------------

    def inc(self, name, amount=1, labels=None):
        if not self.enabled:
            return
        with self.lock:
            self.counter(name, labels).inc(amount)

    def set_gauge(self, name, value, labels=None):
        if not self.enabled:
            return
        with self.lock:
            self.gauge(name, labels).set(value)

    def observe(self, name, value, buckets=SIZE_BUCKETS, labels=None):
        if not self.enabled:
            return
        with self.lock:
            self.histogram(name, buckets, labels).observe(value)

    def record_exec_stats(self, stats):
        """Fold one query's :class:`repro.engine.stats.ExecStats` in."""
        if not self.enabled or stats is None:
            return
        with self.lock:
            self._record_exec_stats_locked(stats)

    def _record_exec_stats_locked(self, stats):
        self.inc("cache.trie.hits", stats.trie_cache_hits)
        self.inc("cache.trie.misses", stats.trie_cache_misses)
        self.inc("cache.plan.hits", stats.plan_cache_hits)
        self.inc("cache.plan.misses", stats.plan_cache_misses)
        self.inc("pipeline.parses", stats.parses)
        self.inc("pipeline.ghd_builds", stats.ghd_builds)
        self.inc("pipeline.codegen_runs", stats.codegen_runs)
        self.inc("pipeline.bag_codegen_reuses", stats.bag_codegen_reuses)
        self.inc("pipeline.compiled_bag_calls", stats.compiled_bag_calls)
        self.inc("pipeline.recursion_rounds", stats.recursion_rounds)

    def record_counter_delta(self, before, after):
        """Fold an :class:`~repro.sets.cost.OpCounter` snapshot delta in.

        ``before``/``after`` are ``OpCounter.snapshot()`` dicts; the
        per-algorithm call deltas give layout-dispatch counts.
        """
        if not self.enabled:
            return
        with self.lock:
            self.inc("ops.simd", after["simd_ops"] - before["simd_ops"])
            self.inc("ops.scalar",
                     after["scalar_ops"] - before["scalar_ops"])
            previous = before["by_algorithm"]
            for algorithm, stat in after["by_algorithm"].items():
                prior = previous.get(algorithm, {"calls": 0})
                calls = stat["calls"] - prior["calls"]
                if calls:
                    self.inc("intersect.calls.%s" % algorithm, calls)

    # -- state transport ----------------------------------------------------

    def to_state(self):
        """Lossless plain-data form of every instrument.

        Pickle/JSON-safe (lists, dicts, numbers, strings only): the
        telemetry hub folds per-query states into lifetime series.
        Merge with :meth:`merge_state`.
        """
        with self.lock:
            return {
                "counters": [
                    {"name": c.name, "labels": list(c.labels),
                     "value": c.value}
                    for c in self.counters.values()],
                "gauges": [
                    {"name": g.name, "labels": list(g.labels),
                     "value": g.value}
                    for g in self.gauges.values()],
                "histograms": [
                    {"name": h.name, "labels": list(h.labels),
                     "buckets": list(h.buckets), "counts": list(h.counts),
                     "count": h.count, "sum": h.total,
                     "min": h.minimum if h.count else None,
                     "max": h.maximum if h.count else None}
                    for h in self.histograms.values()],
            }

    def merge_state(self, state, labels=None):
        """Fold a :meth:`to_state` payload in (respects ``enabled``).

        ``labels``, when given, are added to every merged series (the
        hub labels per-query states by e.g. execution mode); a label
        already present on the incoming series wins.
        """
        if not self.enabled or not state:
            return
        with self.lock:
            self._merge_state_locked(state, labels)

    def _merge_state_locked(self, state, labels):
        extra = labels_key(labels)

        def merged_labels(own):
            own = tuple(tuple(pair) for pair in own)
            if not extra:
                return dict(own)
            out = dict(extra)
            out.update(dict(own))
            return out
        for item in state.get("counters", ()):
            if item["value"]:
                self.inc(item["name"], item["value"],
                         labels=merged_labels(item.get("labels", ())))
        for item in state.get("gauges", ()):
            self.set_gauge(item["name"], item["value"],
                           labels=merged_labels(item.get("labels", ())))
        for item in state.get("histograms", ()):
            if not item["count"]:
                continue
            histogram = self.histogram(
                item["name"], buckets=tuple(item["buckets"]),
                labels=merged_labels(item.get("labels", ())))
            histogram.merge(item["counts"], item["sum"], item["count"],
                            item["min"], item["max"],
                            buckets=item["buckets"])

    # -- inspection ---------------------------------------------------------

    def snapshot(self):
        """Plain-dict view of every instrument (JSON-serializable).

        Keys are :func:`series_key` strings; labeled series appear as
        ``name{k=v}`` entries next to their unlabeled siblings.
        """
        with self.lock:
            return {
                "counters": {
                    key: c.value
                    for key, c in sorted(self.counters.items())},
                "gauges": {
                    key: g.value
                    for key, g in sorted(self.gauges.items())},
                "histograms": {
                    key: h.snapshot()
                    for key, h in sorted(self.histograms.items())},
            }

    def reset(self):
        """Drop every instrument (names re-create lazily)."""
        with self.lock:
            self.counters = {}
            self.gauges = {}
            self.histograms = {}

    def describe(self):
        """Human-readable dump, one instrument per line."""
        lines = ["metrics:"]
        for key, counter in sorted(self.counters.items()):
            lines.append("  %-32s %d" % (key, counter.value))
        for key, gauge in sorted(self.gauges.items()):
            lines.append("  %-32s %g (gauge)" % (key, gauge.value))
        for key, histogram in sorted(self.histograms.items()):
            if not histogram.count:
                continue
            lines.append(
                "  %-32s count=%d mean=%.3g min=%.3g max=%.3g" % (
                    key, histogram.count, histogram.mean,
                    histogram.minimum, histogram.maximum))
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
