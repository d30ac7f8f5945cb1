"""Continuous telemetry: query log, lifetime metrics, slow-query promotion.

PR 3's tracer/metrics/``ExecStats`` observe *one* query; this module
turns them into an operable, process-lifetime pipeline — the substrate
a long-lived query service runs on.  Four cooperating pieces:

* a **structured query log**: one JSON record per query (see
  :data:`QUERY_RECORD_FIELDS`) appended to a size-rotating JSONL sink
  (:class:`RotatingJsonlSink`) — grep-able, tail-able, schema-checked
  (:func:`validate_query_record`, CI runs ``python -m
  repro.obs.telemetry <log>`` over a smoke batch);
* a :class:`TelemetryHub` that aggregates every query's outcome into
  **labeled process-lifetime series** in a
  :class:`~repro.obs.metrics.MetricsRegistry` (latency histograms per
  execution mode, plan-cache tier counters, fused-block counters) —
  exported as OpenMetrics text by :mod:`repro.obs.openmetrics`;
* a :class:`~repro.obs.flight.FlightRecorder` ring of recent records
  with a write-ahead in-flight journal and post-mortem dumps;
* **slow-query promotion**: a query whose latency exceeds
  ``slow_query_seconds`` flags its identity, its *next* execution runs
  fully traced, and the trace is archived next to the query log.

Enable through ``Database.enable_telemetry(directory)`` or the CLI's
``--telemetry DIR``; ``repro top`` renders a live dashboard from the
query log.  Telemetry off is free: the engine's hot paths never see
the hub (``Database.query`` takes its untouched fast path when
``_telemetry is None``).
"""

import hashlib
import json
import os
import sys
import threading
import time

from .flight import FlightRecorder
from .metrics import MetricsRegistry, TIME_BUCKETS

#: Query-log schema version, stamped into every record.
QUERY_LOG_VERSION = 1

#: Field name → (required?, allowed types) of one query record.
#: ``None`` is always allowed for optional fields.  The in-flight
#: journal form omits the post-execution fields (``elapsed_seconds``,
#: ``rows``); everything else is written up front.
QUERY_RECORD_FIELDS = {
    "schema_version": (True, (int,)),
    "query_id": (True, (str,)),
    "ts": (True, (int, float)),
    "pid": (True, (int,)),
    "status": (True, (str,)),
    "text_sha": (True, (str,)),
    "text": (False, (str,)),
    "execution_mode": (True, (str,)),
    "config_signature": (True, (str,)),
    "cache_key": (False, (str,)),
    "elapsed_seconds": (True, (int, float)),
    "rows": (True, (int,)),
    "plan_cache": (False, (str,)),
    "plan_cache_hits": (False, (int,)),
    "plan_cache_misses": (False, (int,)),
    "phases": (False, (dict,)),
    "fused_blocks": (False, (int,)),
    "recursion_rounds": (False, (int,)),
    # No longer written (they counted forked-scheduler morsels); kept
    # so version-1 logs that carry them still validate.
    "morsels": (False, (int,)),
    "steals": (False, (int,)),
    "workers": (False, (int,)),
    # No longer written either (the self-tuner's plan-eviction count
    # and worst predicted/actual ratio); kept for the same reason.
    "mispredict_ratio": (False, (int, float)),
    "replans": (False, (int,)),
    # No longer written (bags the default engine handed to the
    # interpreter; every bag now has a kernel); kept the same way.
    "fused_fallbacks": (False, (int,)),
    "promoted": (False, (bool,)),
    "trace_path": (False, (str,)),
    "error": (False, (str,)),
    # Query-service fields (repro.serve): which result-cache tier the
    # request took (hit / miss / bypass) and how long it waited for
    # admission + its executor slot before running.
    "result_cache": (False, (str,)),
    "queue_seconds": (False, (int, float)),
}

#: Statuses a record may carry; ``inflight`` only in the journal.
RECORD_STATUSES = ("ok", "error", "inflight")

#: Fields the in-flight (write-ahead) journal form may omit.
_POST_EXECUTION_FIELDS = ("elapsed_seconds", "rows")


def text_digest(text):
    """Stable short digest identifying a query text."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


def key_digest(value):
    """Short digest of a structural key (optimized-IR ``cache_key()``
    tuples, ``config_signature`` tuples) — stable within a schema
    version, JSON-safe, and small enough to log per query."""
    if value is None:
        return None
    return hashlib.sha1(repr(value).encode("utf-8")).hexdigest()[:16]


def validate_query_record(record, inflight=False):
    """Return a list of schema problems with one record (empty = valid)."""
    problems = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    for name, (required, types) in QUERY_RECORD_FIELDS.items():
        if name not in record or record[name] is None:
            if required and not (inflight
                                 and name in _POST_EXECUTION_FIELDS):
                problems.append("missing required field %r" % name)
            continue
        value = record[name]
        # bool is an int subclass; keep int fields honest.
        if isinstance(value, bool) and bool not in types:
            problems.append("field %r has bool value" % name)
        elif not isinstance(value, types):
            problems.append("field %r has type %s, expected %s"
                            % (name, type(value).__name__,
                               "/".join(t.__name__ for t in types)))
    for name in record:
        if name not in QUERY_RECORD_FIELDS:
            problems.append("unknown field %r" % name)
    if record.get("schema_version") not in (None, QUERY_LOG_VERSION):
        problems.append("unsupported schema_version %r"
                        % (record.get("schema_version"),))
    status = record.get("status")
    if status is not None and status not in RECORD_STATUSES:
        problems.append("unknown status %r" % (status,))
    if not inflight and status == "inflight":
        problems.append("completed record still marked inflight")
    elapsed = record.get("elapsed_seconds")
    if isinstance(elapsed, (int, float)) and elapsed < 0:
        problems.append("negative elapsed_seconds")
    return problems


def validate_query_log(path):
    """Validate a JSONL query log file.

    Returns ``(n_records, problems)`` where each problem is prefixed
    with its line number.  Unparseable lines are problems too.
    """
    problems = []
    count = 0
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                problems.append("line %d: not JSON (%s)"
                                % (line_number, error))
                continue
            count += 1
            problems.extend("line %d: %s" % (line_number, p)
                            for p in validate_query_record(record))
    return count, problems


class RotatingJsonlSink:
    """Append-only JSONL file with size-based rotation.

    When the active file would exceed ``max_bytes`` the chain rotates
    (``queries.jsonl`` → ``queries.jsonl.1`` → … → dropped past
    ``backups``), so a long-lived process holds a bounded window of
    history on disk.  Each append is one compact JSON line plus a
    flush — records survive a crash up to the last completed query.
    """

    def __init__(self, path, max_bytes=8 * 1024 * 1024, backups=3):
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        directory = os.path.dirname(os.path.abspath(path))
        if directory and not os.path.isdir(directory):
            os.makedirs(directory)
        self._handle = open(path, "a")
        self.written = 0

    def append(self, record):
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        if self._handle.tell() + len(line) > self.max_bytes \
                and self._handle.tell() > 0:
            self.rotate()
        self._handle.write(line)
        self._handle.flush()
        self.written += 1

    def rotate(self):
        """Shift the backup chain and start a fresh active file."""
        self._handle.close()
        for index in range(self.backups, 0, -1):
            source = self.path if index == 1 \
                else "%s.%d" % (self.path, index - 1)
            if os.path.exists(source):
                os.replace(source, "%s.%d" % (self.path, index))
        if self.backups == 0:
            os.replace(self.path, self.path + ".dropped")
            os.remove(self.path + ".dropped")
        self._handle = open(self.path, "a")

    def close(self):
        if not self._handle.closed:
            self._handle.close()


def read_query_log(path, limit=None):
    """Records from a (possibly rotated) query log, oldest first.

    Walks ``path.N`` (highest = oldest) before the active file; skips
    torn/blank lines (a crash can truncate the final line).  ``limit``
    keeps only the newest N records.
    """
    chain = []
    index = 1
    while os.path.exists("%s.%d" % (path, index)):
        chain.append("%s.%d" % (path, index))
        index += 1
    chain.reverse()  # highest suffix is oldest
    if os.path.exists(path):
        chain.append(path)
    records = []
    for entry in chain:
        with open(entry) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    if limit is not None and len(records) > limit:
        records = records[-limit:]
    return records


class TelemetryHub:
    """Process-lifetime telemetry: log sink + flight recorder + series.

    The hub owns (or shares) a :class:`~repro.obs.metrics.
    MetricsRegistry` and folds every completed query into labeled
    lifetime series:

    ================================  =======================================
    series                            labels
    ================================  =======================================
    ``telemetry.queries``             ``mode``, ``status``
    ``telemetry.query_seconds``       ``mode`` (histogram, time buckets)
    ``telemetry.rows``                —
    ``telemetry.plan_cache``          ``tier`` (``hit``/``partial``/…)
    ``telemetry.fused_blocks``        —
    ``telemetry.recursion_rounds``    —
    ``telemetry.slow_queries``        —
    ``telemetry.result_cache``        ``tier`` (``hit``/``miss``/``bypass``)
    ``telemetry.queue_seconds``       — (histogram, time buckets)
    ================================  =======================================

    The hub is **thread-safe**: one re-entrant lock serializes the
    query lifecycle (id allocation, journal, sink, flight ring, series
    folds), because the query service records cache hits from its event
    loop while executed queries record from the executor thread.
    Series updates additionally hold ``registry.lock`` so the memoized
    instrument fast path cannot race direct ``registry.inc`` callers.

    Slow-query promotion: when a completed query's latency exceeds
    ``slow_query_seconds``, its ``text_sha`` is flagged; the caller
    (``Database.query``) checks :meth:`should_trace` before the next
    execution of the same text, runs it fully traced, and archives the
    trace via :meth:`archive_trace`.  Each identity is archived once.
    """

    def __init__(self, directory=None, registry=None,
                 log_name="queries.jsonl", rotate_bytes=8 * 1024 * 1024,
                 rotate_backups=3, flight_capacity=64,
                 slow_query_seconds=None, clock=time.time):
        self.directory = directory
        if directory is not None and not os.path.isdir(directory):
            os.makedirs(directory)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.sink = RotatingJsonlSink(
            os.path.join(directory, log_name),
            max_bytes=rotate_bytes, backups=rotate_backups) \
            if directory is not None else None
        self.flight = FlightRecorder(directory, capacity=flight_capacity)
        self.slow_query_seconds = slow_query_seconds
        self.clock = clock
        self.started = clock()
        self._started_monotonic = time.perf_counter()
        self.queries = 0
        self._sequence = 0
        self._promoted = {}    # text_sha -> query_id that flagged it
        self._archived = set()  # text_shas already archived
        self._instruments = {}  # hot-path series memo (see _counter)
        self._lock = threading.RLock()  # serializes the query lifecycle
        self.closed = False

    # -- identity -----------------------------------------------------------

    def next_query_id(self):
        with self._lock:
            self._sequence += 1
            return "q%08d-%d" % (self._sequence, os.getpid())

    # -- query lifecycle ----------------------------------------------------

    def begin_query(self, record):
        """Journal the in-flight record (write-ahead, crash-visible)."""
        with self._lock:
            if not self.closed:
                self.flight.begin(record)

    # Per-query series updates are the telemetry hot path, so instrument
    # objects are memoized on fixed-shape keys instead of going through
    # ``registry.inc`` (which recomputes the canonical label key on
    # every call).  The memo is guarded on the registry's dict identity:
    # ``MetricsRegistry.reset()`` rebinds the dicts, which invalidates
    # every cached entry on the next lookup.

    def _counter(self, key, name, labels=None):
        entry = self._instruments.get(key)
        if entry is None or entry[0] is not self.registry.counters:
            entry = (self.registry.counters,
                     self.registry.counter(name, labels))
            self._instruments[key] = entry
        return entry[1]

    def _gauge(self, key, name, labels=None):
        entry = self._instruments.get(key)
        if entry is None or entry[0] is not self.registry.gauges:
            entry = (self.registry.gauges,
                     self.registry.gauge(name, labels))
            self._instruments[key] = entry
        return entry[1]

    def _histogram(self, key, name, buckets, labels=None):
        entry = self._instruments.get(key)
        if entry is None or entry[0] is not self.registry.histograms:
            entry = (self.registry.histograms,
                     self.registry.histogram(name, buckets, labels))
            self._instruments[key] = entry
        return entry[1]

    def record_query(self, record):
        """Fold one completed query record into every lifetime surface:
        the JSONL sink, the flight ring, and the labeled series."""
        with self._lock:
            if self.closed:
                # A timed-out query's worker can outlive the hub (the
                # service answers early and drains); drop its record
                # rather than writing to a closed sink.
                return record
            self.queries += 1
            self.flight.complete(record)
            if self.sink is not None:
                self.sink.append(record)
            if self.registry.enabled:
                with self.registry.lock:
                    self._fold_series(record)
            self._check_slow(record)
        return record

    def _fold_series(self, record):
        """Series updates for one record (registry lock held)."""
        mode = record.get("execution_mode", "unknown")
        status = record.get("status", "ok")
        self._counter(("queries", mode, status),
                      "telemetry.queries",
                      {"mode": mode, "status": status}).inc()
        elapsed = record.get("elapsed_seconds")
        if elapsed is not None:
            self._histogram(("seconds", mode),
                            "telemetry.query_seconds",
                            TIME_BUCKETS,
                            {"mode": mode}).observe(elapsed)
        rows = record.get("rows")
        if rows:
            self._counter("rows", "telemetry.rows").inc(rows)
        tier = record.get("plan_cache")
        if tier and tier != "n/a":
            # "n/a" is a record-level sentinel (no plan-cache activity
            # this query); folding it would invent a tier alongside the
            # real hit/partial/miss series.
            self._counter(("tier", tier), "telemetry.plan_cache",
                          {"tier": tier}).inc()
        result_tier = record.get("result_cache")
        if result_tier:
            self._counter(("result_cache", result_tier),
                          "telemetry.result_cache",
                          {"tier": result_tier}).inc()
        queued = record.get("queue_seconds")
        if queued is not None:
            self._histogram("queue_seconds", "telemetry.queue_seconds",
                            TIME_BUCKETS).observe(queued)
        for field, series in (
                ("fused_blocks", "telemetry.fused_blocks"),
                ("recursion_rounds", "telemetry.recursion_rounds")):
            value = record.get(field)
            if value:
                self._counter(field, series).inc(value)

    def fail_query(self, record, error):
        """Record a query that raised: flight ring + sink + series, and
        an immediate post-mortem dump."""
        with self._lock:
            if self.closed:
                return dict(record)
            record = self.flight.fail(record, error)
            record.setdefault("elapsed_seconds", 0.0)
            record.setdefault("rows", 0)
            failed = dict(record)
            self.queries += 1
            if self.sink is not None:
                self.sink.append(failed)
            self.registry.inc(
                "telemetry.queries",
                labels={"mode": failed.get("execution_mode", "unknown"),
                        "status": "error"})
            self.flight.dump(reason="exception")
        return failed

    # -- slow-query promotion -----------------------------------------------

    def _check_slow(self, record):
        budget = self.slow_query_seconds
        if budget is None:
            return
        elapsed = record.get("elapsed_seconds")
        if elapsed is None or elapsed <= budget:
            return
        self.registry.inc("telemetry.slow_queries")
        sha = record.get("text_sha")
        if sha and sha not in self._archived and sha not in self._promoted:
            self._promoted[sha] = record.get("query_id")

    def should_trace(self, text_sha):
        """True when this query identity was flagged slow and its traced
        re-execution has not happened yet."""
        with self._lock:
            return text_sha in self._promoted

    def archive_trace(self, tracer, record):
        """Archive a promoted query's trace next to the query log;
        returns the trace path (``None`` for memory-only hubs).  The
        identity is unflagged either way — one archive per promotion.
        """
        sha = record.get("text_sha")
        with self._lock:
            self._promoted.pop(sha, None)
            self._archived.add(sha)
            self.flight.note_spans(list(tracer.spans), tracer.t0)
        if self.directory is None:
            return None
        path = os.path.join(self.directory,
                            "slow-%s.trace.json" % record["query_id"])
        from .export import write_chrome_trace
        write_chrome_trace(tracer, path)
        self.registry.inc("telemetry.traces_archived")
        return path

    # -- inspection ---------------------------------------------------------

    def uptime(self):
        return time.perf_counter() - self._started_monotonic

    def qps(self):
        """Lifetime queries-per-second (``repro top`` computes windowed
        rates from the log's timestamps instead)."""
        uptime = self.uptime()
        return self.queries / uptime if uptime > 0 else 0.0

    def absorb_state(self, state, labels=None):
        """Merge a per-query registry state (``MetricsRegistry.
        to_state()``) into the lifetime series, optionally labeled —
        the aggregation seam a multi-database service feeds."""
        self.registry.merge_state(state, labels=labels)

    def snapshot(self):
        """JSON-safe summary: uptime, throughput, and every series."""
        # uptime is set at read time, not per query — it only needs to
        # be current when someone looks
        self.registry.set_gauge("telemetry.uptime_seconds",
                                self.uptime())
        return {
            "started": self.started,
            "uptime_seconds": self.uptime(),
            "queries": self.queries,
            "qps": self.qps(),
            "promoted": sorted(self._promoted),
            "metrics": self.registry.snapshot(),
        }

    def write_openmetrics(self, path=None):
        """Write the registry as OpenMetrics text; defaults to
        ``<directory>/metrics.prom``."""
        from .openmetrics import write_openmetrics
        if path is None:
            if self.directory is None:
                return None
            path = os.path.join(self.directory, "metrics.prom")
        self.registry.set_gauge("telemetry.uptime_seconds",
                                self.uptime())
        return write_openmetrics(self.registry, path)

    def close(self, dump_reason="atexit"):
        """Final flush: post-mortem dump, OpenMetrics file, sink close.
        Idempotent — registered with ``atexit`` by the database."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self.flight.dump(reason=dump_reason)
            self.flight.close()
            if self.directory is not None:
                try:
                    self.write_openmetrics()
                except Exception:  # pragma: no cover - best-effort at exit
                    pass
            if self.sink is not None:
                self.sink.close()


# ---------------------------------------------------------------------------
# ``repro top`` rendering
# ---------------------------------------------------------------------------


def _quantile_sorted(values, q):
    if not values:
        return 0.0
    rank = q * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    fraction = rank - low
    return values[low] * (1 - fraction) + values[high] * fraction


def render_top(records, now=None, window=60.0):
    """One frame of the ``repro top`` dashboard, from query records.

    QPS and quantiles come from the records inside the trailing
    ``window`` seconds (all records when timestamps predate the
    window); cache-tier and lane sections aggregate the same slice.
    """
    now = time.time() if now is None else now
    recent = [r for r in records
              if isinstance(r.get("ts"), (int, float))
              and r["ts"] >= now - window]
    scope = "last %.0fs" % window
    if not recent:
        recent = records
        scope = "all time"
    lines = ["repro top — %d quer%s (%s), %d total in log"
             % (len(recent), "y" if len(recent) == 1 else "ies",
                scope, len(records))]
    if not records:
        lines.append("  (query log is empty)")
        return "\n".join(lines)
    timestamps = sorted(r["ts"] for r in recent
                        if isinstance(r.get("ts"), (int, float)))
    if len(timestamps) >= 2 and timestamps[-1] > timestamps[0]:
        qps = (len(timestamps) - 1) / (timestamps[-1] - timestamps[0])
    else:
        qps = float(len(timestamps)) / window if window else 0.0
    latencies = sorted(r["elapsed_seconds"] for r in recent
                       if isinstance(r.get("elapsed_seconds"),
                                     (int, float)))
    lines.append(
        "  qps %.2f   latency p50 %.2fms  p95 %.2fms  p99 %.2fms  "
        "max %.2fms"
        % (qps,
           _quantile_sorted(latencies, 0.50) * 1e3,
           _quantile_sorted(latencies, 0.95) * 1e3,
           _quantile_sorted(latencies, 0.99) * 1e3,
           (latencies[-1] if latencies else 0.0) * 1e3))
    errors = sum(1 for r in recent if r.get("status") == "error")
    modes = {}
    for record in recent:
        mode = record.get("execution_mode", "?")
        modes[mode] = modes.get(mode, 0) + 1
    lines.append("  modes: %s   errors: %d"
                 % (", ".join("%s=%d" % item
                              for item in sorted(modes.items())), errors))
    tiers = {}
    for record in recent:
        tier = record.get("plan_cache")
        if tier:
            tiers[tier] = tiers.get(tier, 0) + 1
    total_tiers = sum(tiers.values())
    if total_tiers:
        lines.append("  plan cache: %s  (hit rate %.0f%%)"
                     % (", ".join("%s=%d" % item
                                  for item in sorted(tiers.items())),
                        100.0 * tiers.get("hit", 0) / total_tiers))
    fused = sum(r.get("fused_blocks") or 0 for r in recent)
    if fused:
        lines.append("  lanes: fused blocks %d" % fused)
    slow = sorted((r for r in recent
                   if isinstance(r.get("elapsed_seconds"), (int, float))),
                  key=lambda r: -r["elapsed_seconds"])[:3]
    if slow:
        lines.append("  slowest:")
        for record in slow:
            text = (record.get("text") or record.get("text_sha", ""))
            text = text.replace("\n", " ")[:48]
            lines.append("    %8.2fms  %-10s %s"
                         % (record["elapsed_seconds"] * 1e3,
                            record.get("plan_cache") or "-", text))
    return "\n".join(lines)


def main(argv=None):
    """Validate a query log:
    ``python -m repro.obs.telemetry queries.jsonl``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    count, problems = validate_query_log(argv[0])
    if problems:
        for problem in problems:
            print("INVALID: %s" % problem, file=sys.stderr)
        return 1
    if count == 0:
        print("INVALID: query log holds no records", file=sys.stderr)
        return 1
    print("valid query log: %d record(s), schema v%d"
          % (count, QUERY_LOG_VERSION))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
