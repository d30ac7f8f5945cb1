"""Outside-in layer tracing: spans around the public functions of
each ``src/repro`` layer, recorded from the harness.

Nothing under ``src/`` is edited or asked to time itself.  ``install``
replaces each target — a module-level function under every name it
was imported as, or a class attribute — with a wrapper that records a
parent-linked span in memory; ``remove`` puts every original object
back.  A layer's *self time* is its span's duration minus the part its
child spans cover, so the layers of one operation add up to the
operation's traced wall time.

Spans are plain lists (cheaper than objects on the hot path):
``[id, name, layer, start, end, parent id, op id, counts]`` with
``time.perf_counter`` stamps — on Linux the system-wide monotonic
clock, so spans of the daemon child line up with the load generator's
own stamps.
"""

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

ID, NAME, LAYER, START, END, PARENT, OP, COUNTS = range(8)

#: Op id of spans recorded during set-up (load, warm-up block).
SETUP_OP = -1

_current = contextvars.ContextVar("e2e_current_span", default=None)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        #: Op id stamped on new root spans; ``None`` gives every root
        #: its own id (the daemon, where one root is one request).
        self.op = SETUP_OP

    def begin(self, name, layer):
        parent = _current.get()
        span_id = next(self._ids)
        if parent is not None:
            op, parent_id = parent[OP], parent[ID]
        else:
            op = span_id if self.op is None else self.op
            parent_id = None
        span = [span_id, name, layer, 0.0, None, parent_id, op, None]
        self.spans.append(span)
        token = _current.set(span)
        span[START] = time.perf_counter()
        return span, token

    def end(self, span, token):
        span[END] = time.perf_counter()
        _current.reset(token)

    def dump(self, path):
        dump([s for s in self.spans if s[END] is not None], path)


def dump(spans, path):
    """Write spans as JSON objects, one per span (the trace file)."""
    with open(path, "w") as handle:
        json.dump([{"id": s[ID], "name": s[NAME], "layer": s[LAYER],
                    "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP],
                    "counts": s[COUNTS]} for s in spans], handle)


def load_spans(path):
    with open(path) as handle:
        return [[r["id"], r["name"], r["layer"], r["start"], r["end"],
                 r["parent"], r["op"], r["counts"]]
                for r in json.load(handle)]


# -- probes: counts read at the boundary the span sits on --------------------
#
# A probe is ``(before, after)``: ``before(*args)`` runs ahead of the
# call, ``after(state, *args)`` behind it and returns the span's counts.


def _trie_before(cache, *_args, **_kwargs):
    return cache.misses, cache.patches


def _trie_after(state, cache, *_args, **_kwargs):
    misses = cache.misses - state[0]
    patches = cache.patches - state[1]
    return {"hit": 1 - misses, "build": misses - patches,
            "patch": patches}


def _query_before(db, *_args, **_kwargs):
    return db.counter.total_ops


def _query_after(state, db, *_args, **_kwargs):
    counts = {"lane_ops": db.counter.total_ops - state}
    stats = db.last_stats
    if stats is not None:
        counts["plan_hits"] = stats.plan_cache_hits
        counts["plan_misses"] = stats.plan_cache_misses
        counts["fused_blocks"] = stats.fused_blocks
        counts["bag_calls"] = stats.compiled_bag_calls
    return counts


def _refresh_before(db, *_args, **_kwargs):
    views = db.views.values()
    return (sum(v.refreshes for v in views),
            sum(v.delta_refreshes for v in views))


def _refresh_after(state, db, *_args, **_kwargs):
    refreshes, deltas = _refresh_before(db)
    return {"refreshes": refreshes - state[0],
            "delta": deltas - state[1]}


TRIE_PROBE = (_trie_before, _trie_after)
QUERY_PROBE = (_query_before, _query_after)
REFRESH_PROBE = (_refresh_before, _refresh_after)

#: ``(module, attribute or Class.attribute, layer, probe)``.  The span
#: name is the attribute path.
TARGETS = (
    ("repro.query.parser", "parse", "query", None),
    ("repro.lir.passes", "optimize_rule", "lir", None),
    ("repro.lir.passes", "plan_rule", "lir", None),
    ("repro.ghd.decompose", "decompose", "ghd", None),
    ("repro.ghd.attribute_order", "global_attribute_order", "ghd", None),
    ("repro.graphs.datasets", "read_edgelist", "storage", None),
    ("repro.api", "Database.load_graph", "storage", None),
    ("repro.api", "Database.append", "storage", None),
    ("repro.api", "Database.delete", "storage", None),
    ("repro.engine.executor", "TrieCache.get", "storage", TRIE_PROBE),
    ("repro.engine.executor", "RuleExecutor.execute", "engine", None),
    ("repro.engine.executor", "RuleExecutor.execute_compiled_mode",
     "engine", None),
    ("repro.engine.codegen", "generate_bag_plan", "engine", None),
    ("repro.engine.recursion", "execute_recursive", "engine", None),
    ("repro.engine.incremental", "refresh_stale_views", "engine",
     REFRESH_PROBE),
    ("repro.api", "Database.query", "api", QUERY_PROBE),
    ("repro.api", "Result.scalar", "api", None),
    ("repro.api", "Result.to_dict", "api", None),
    ("repro.serve.protocol", "encode_message", "serve", None),
    ("repro.serve.protocol", "decode_message", "serve", None),
    ("repro.serve.protocol", "payload_from_relation", "serve", None),
    ("repro.serve.cache", "program_identity", "serve", None),
    ("repro.serve.server", "QueryService._dispatch", "serve", None),
    ("repro.obs.telemetry", "TelemetryHub.begin_query", "obs", None),
    ("repro.obs.telemetry", "TelemetryHub.record_query", "obs", None),
)

#: Imported before patching so every ``from x import f`` alias exists
#: and is found; a module first imported afterwards would keep a
#: wrapper past ``remove``.
MODULES = ("repro", "repro.api", "repro.cli", "repro.graphs",
           "repro.serve", "repro.serve.server", "repro.serve.client",
           "repro.engine.codegen", "repro.engine.recursion",
           "repro.engine.incremental", "repro.obs.telemetry")


def _sync_wrapper(tracer, fn, name, layer, probe):
    if probe is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span, token)
        return wrapper
    before, after = probe

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        state = before(*args, **kwargs)
        span, token = tracer.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span, token)
            span[COUNTS] = after(state, *args, **kwargs)
    return probed


def _async_wrapper(tracer, fn, name, layer):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span, token = tracer.begin(name, layer)
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.end(span, token)
    return wrapper


def _thread_link(run_on_worker):
    """Carry the request's span onto the daemon's worker thread, so
    the engine spans of a request hang under its ``_dispatch`` span."""
    @functools.wraps(run_on_worker)
    async def wrapper(service, worker, *args, **kwargs):
        parent = _current.get()

        def linked():
            token = _current.set(parent)
            try:
                return worker()
            finally:
                _current.reset(token)
        return await run_on_worker(service, linked, *args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs the layer wrappers and remembers how to undo them."""

    def __init__(self, tracer):
        self.tracer = tracer
        #: ``(owner, attribute, original object)`` per replaced name.
        self.patched = []

    def _replace(self, owner, attribute, new):
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, new)

    def install(self):
        for module_name in MODULES:
            importlib.import_module(module_name)
        repro_modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and (name == "repro"
                                               or name.startswith("repro."))]
        for module_name, path, layer, probe in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[attribute]
                if isinstance(original, property):
                    new = property(
                        _sync_wrapper(self.tracer, original.fget, path,
                                      layer, probe),
                        original.fset, original.fdel, original.__doc__)
                elif inspect.iscoroutinefunction(original):
                    new = _async_wrapper(self.tracer, original, path, layer)
                else:
                    new = _sync_wrapper(self.tracer, original, path,
                                        layer, probe)
                self._replace(owner, attribute, new)
                continue
            original = getattr(module, path)
            new = _sync_wrapper(self.tracer, original, path, layer, probe)
            for candidate in repro_modules:
                for alias, value in list(vars(candidate).items()):
                    if value is original:
                        self._replace(candidate, alias, new)
        from repro.serve.server import QueryService
        self._replace(QueryService, "_run_on_worker",
                      _thread_link(QueryService._run_on_worker))
        return self

    def remove(self):
        while self.patched:
            owner, attribute, original = self.patched.pop()
            setattr(owner, attribute, original)


# -- analysis -----------------------------------------------------------------


def self_times(spans):
    """``{span id: duration minus the time its children cover}``.

    Children of one parent run one after another (or, for the daemon's
    ``_dispatch``, on the one worker thread), so their durations add.
    """
    covered = {}
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] = covered.get(span[PARENT], 0.0) \
                + (span[END] - span[START])
    return {span[ID]: max(0.0, span[END] - span[START]
                          - covered.get(span[ID], 0.0))
            for span in spans}


#: Span name -> per-layer time metric its self time is charged to.
TIME_METRIC = {
    "parse": "query.parse_ms",
    "optimize_rule": "lir.optimize_ms",
    "plan_rule": "lir.plan_ms",
    "decompose": "ghd.search_ms",
    "global_attribute_order": "ghd.order_ms",
    "read_edgelist": "storage.load_ms",
    "Database.load_graph": "storage.load_ms",
    "TrieCache.get": "storage.trie_build_ms",
    "Database.append": "storage.delta_ms",
    "Database.delete": "storage.delta_ms",
    "RuleExecutor.execute": "engine.kernel_ms",
    "RuleExecutor.execute_compiled_mode": "engine.kernel_ms",
    "generate_bag_plan": "engine.codegen_ms",
    "execute_recursive": "engine.recursion_ms",
    "refresh_stale_views": "engine.refresh_ms",
    "Database.query": "api.overhead_ms",
    "Result.scalar": "api.overhead_ms",
    "Result.to_dict": "api.overhead_ms",
    "encode_message": "serve.codec_ms",
    "decode_message": "serve.codec_ms",
    "payload_from_relation": "serve.codec_ms",
    "program_identity": "serve.identity_ms",
    "QueryService._dispatch": "serve.dispatch_ms",
    "TelemetryHub.begin_query": "obs.telemetry_ms",
    "TelemetryHub.record_query": "obs.telemetry_ms",
}

TIME_METRICS = tuple(dict.fromkeys(TIME_METRIC.values()))

COUNT_METRICS = ("ghd.searches", "storage.trie_builds",
                 "storage.trie_patches", "storage.trie_hit_ratio",
                 "sets.lane_ops", "engine.kernel_share",
                 "engine.plan_cache_hit_ratio", "engine.fused_block_share",
                 "engine.fallbacks", "engine.recursion_rounds",
                 "engine.refresh_delta_share")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans, operations, traced_wall):
    """Per-layer metrics of ``operations`` traced operations.

    ``spans`` are the spans of those operations only; times are self
    time per operation in ms, counts are per operation, ratios are over
    all of them.  ``traced_wall`` is their summed wall time in seconds
    as the load generator saw it.  Two exceptions: ``engine.refresh_ms``
    is the whole time spent refreshing views, children included, and
    ``storage.load_ms`` happens once per process, so the caller adds
    the set-up spans' share through :func:`load_ms`.
    """
    own = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    seconds = dict.fromkeys(TIME_METRICS, 0.0)
    counts = {"searches": 0, "hit": 0, "build": 0, "patch": 0,
              "lane_ops": 0, "plan_hits": 0, "plan_misses": 0,
              "fused_blocks": 0, "bag_calls": 0, "rounds": 0,
              "refreshes": 0, "delta": 0}
    refreshing = 0.0
    for span in spans:
        seconds[TIME_METRIC[span[NAME]]] += own[span[ID]]
        if span[NAME] == "refresh_stale_views":
            refreshing += span[END] - span[START]
        if span[NAME] == "decompose":
            counts["searches"] += 1
        elif span[NAME].startswith("RuleExecutor.execute"):
            parent = by_id.get(span[PARENT])
            if parent is not None and parent[NAME] == "execute_recursive":
                counts["rounds"] += 1
        for key, value in (span[COUNTS] or {}).items():
            counts[key] += value
    per_op = 1000.0 / operations
    metrics = {name: value * per_op for name, value in seconds.items()}
    # the one inclusive time: a refresh is mostly rule executions,
    # which the kernel row also counts as their own self time
    metrics["engine.refresh_ms"] = refreshing * per_op
    metrics.update({
        "ghd.searches": counts["searches"] / operations,
        "storage.trie_builds": counts["build"] / operations,
        "storage.trie_patches": counts["patch"] / operations,
        "storage.trie_hit_ratio": _ratio(
            counts["hit"],
            counts["hit"] + counts["build"] + counts["patch"]),
        "sets.lane_ops": counts["lane_ops"] / operations,
        "engine.kernel_share": _ratio(seconds["engine.kernel_ms"],
                                      traced_wall),
        "engine.plan_cache_hit_ratio": _ratio(
            counts["plan_hits"],
            counts["plan_hits"] + counts["plan_misses"]),
        "engine.fused_block_share": _ratio(counts["fused_blocks"],
                                           counts["bag_calls"]),
        "engine.fallbacks":
            (counts["bag_calls"] - counts["fused_blocks"]) / operations,
        "engine.recursion_rounds": counts["rounds"] / operations,
        "engine.refresh_delta_share": _ratio(counts["delta"],
                                             counts["refreshes"]),
        "trace.coverage": _ratio(sum(own.values()), traced_wall),
    })
    return metrics


def load_ms(spans):
    """Self time of the load spans in ``spans``, in ms."""
    own = self_times(spans)
    return 1000.0 * sum(own[s[ID]] for s in spans
                        if TIME_METRIC[s[NAME]] == "storage.load_ms")
