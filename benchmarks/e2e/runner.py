"""One workload, one pass: set the engine up, run its blocks, reduce
the block records to the metrics BENCHMARK.json names.

The untraced pass yields the five end-to-end metrics; the traced pass
yields the per-layer metrics and never touches an end-to-end number.
"""

import os
import statistics
import time

from . import engines, expected, stats, tracing, workloads

#: Fresh set-ups per untraced run (one under ``--smoke``); ``setup_s``
#: is the best of them, so one contention burst cannot move it.
SETUP_REPEATS = 3

#: Blocks of the traced pass, and as many untraced ones beside them for
#: ``trace.overhead_ratio``.
TRACED_BLOCKS = 3

END_TO_END = (("setup_s", "s"), ("op_ms", "ms"), ("tail_ms", "ms"),
              ("cpu_ms", "ms"), ("peak_rss_mb", "MB"))

_KIND_METRICS = {"triangle": "op.triangle_ms",
                 "four_clique": "op.four_clique_ms",
                 "lollipop": "op.lollipop_ms", "barbell": "op.barbell_ms",
                 "pagerank": "op.pagerank_ms", "sssp": "op.sssp_ms",
                 "hit": "serve.hit_ms", "miss": "serve.miss_ms",
                 "refill": "serve.refill_ms", "write": "serve.write_ms"}



def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share", ".coverage")):
        return "ratio"
    return "count"


#: Every per-layer metric of BENCHMARK.json, with its unit.
PER_LAYER = tuple(
    (name, _unit(name)) for name in (
        tracing.TIME_METRICS + tracing.COUNT_METRICS
        + ("serve.cache_hit_ratio", "serve.queue_wait_ms",
           "serve.rejected_share", "cli.interp_ms", "cli.import_ms",
           "cli.load_ms", "cli.query_ms")
        + tuple(_KIND_METRICS.values())
        + ("trace.coverage", "trace.overhead_ratio")))


class Outcome:
    """What one pass produced: metrics by name, operation counts, the
    block summaries printed beside the gated numbers."""

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.summaries = {}
        self.config_signature = None

    def count(self, blocks):
        for block in blocks:
            self.attempted += block["ops"]
            self.failed += len(block["failures"])
            self.failures.extend(block["failures"])

    @property
    def correct(self):
        return self.failed == 0


def _engine(plan, answers, seed, smoke):
    return engines.ENGINES[plan["kind"]](plan, answers, seed, smoke)


def run(name, seed, seconds=workloads.RUN_SECONDS, traced=False,
        smoke=False):
    """Run workload ``name`` once; returns an :class:`Outcome`."""
    plan = workloads.plan(name, seed, smoke)
    answers = expected.block_answers(plan)
    if traced:
        return _traced(plan, answers, seed, smoke)
    n_blocks = workloads.blocks_for(workloads.SPECS[name], seconds, smoke)
    return _untraced(plan, answers, seed, smoke, n_blocks)


def _untraced(plan, answers, seed, smoke, n_blocks):
    outcome = Outcome(plan["workload"], traced=False)
    setups = []
    for _ in range(0 if smoke else SETUP_REPEATS - 1):
        with _engine(plan, answers, seed, smoke) as engine:
            begun = time.perf_counter()
            engine.start()
            setups.append(time.perf_counter() - begun)
    with _engine(plan, answers, seed, smoke) as engine:
        begun = time.perf_counter()
        engine.start(blocks=n_blocks)
        setups.append(time.perf_counter() - begun)
        blocks = list(engine.blocks(n_blocks))
        engine.finish()
    outcome.config_signature = engine.config_signature
    outcome.count(blocks)
    per_block = {
        "op_ms": [1000.0 * b["wall"] / b["ops"] for b in blocks],
        "tail_ms": [1000.0 * b["tail"] for b in blocks],
        "cpu_ms": [1000.0 * b["cpu"] / b["ops"] for b in blocks]}
    outcome.summaries = {metric: stats.summarize(values)
                         for metric, values in per_block.items()}
    outcome.metrics = {metric: summary["p10"]
                       for metric, summary in outcome.summaries.items()}
    outcome.metrics["setup_s"] = min(setups)
    outcome.metrics["peak_rss_mb"] = engine.peak_rss_mb
    outcome.summaries["setup_s"] = {"all": setups}
    lane_ops = {b["lane_ops"] for b in blocks}
    outcome.summaries["lane_ops"] = {"per_block": sorted(
        ops for ops in lane_ops if ops is not None)}
    return outcome


def _kind_ms(blocks, reduce):
    """p10 over blocks of each kind's per-block ``reduce``d latency."""
    metrics = dict.fromkeys(_KIND_METRICS.values(), 0.0)
    for kind, metric in _KIND_METRICS.items():
        per_block = [reduce(b["kinds"][kind]) for b in blocks
                     if b["kinds"].get(kind)]
        if per_block:
            metrics[metric] = 1000.0 * stats.quiet_decile(per_block)
    return metrics


def _op_ms(blocks):
    return 1000.0 * stats.quiet_decile([b["wall"] / b["ops"]
                                        for b in blocks])


def _traced(plan, answers, seed, smoke):
    outcome = Outcome(plan["workload"], traced=True)
    kind = plan["kind"]
    with _engine(plan, answers, seed, smoke) as engine:
        engine.start(blocks=TRACED_BLOCKS if kind == "lib" else 0,
                     traced_blocks=TRACED_BLOCKS)
        traced = list(engine.blocks(TRACED_BLOCKS, traced=True))
        plain = list(engine.blocks(TRACED_BLOCKS)) \
            if kind != "serve" else None
        startup = engine.startup_seconds(TRACED_BLOCKS) \
            if kind == "cli" else (0.0, 0.0)
        engine.finish()
        spans, setup_spans = engine.spans, engine.setup_spans
    if plain is None:
        # a daemon is traced from its first instruction or not at all,
        # so the untraced comparison blocks need a daemon of their own
        with _engine(plan, answers, seed, smoke) as engine:
            engine.start()
            plain = list(engine.blocks(TRACED_BLOCKS))
            engine.finish()
    outcome.count(traced + plain)
    operations = sum(b["ops"] for b in traced)
    if kind == "serve":
        spans, setup_spans = _windows(
            spans, [(b["begun"], b["ended"]) for b in traced])
        wall = sum(b["latency_sum"] for b in traced)
    else:
        wall = sum(b["wall"] for b in traced)
    _keep_trace(plan["workload"], spans)
    metrics = tracing.layer_metrics(spans, operations, wall)
    metrics["storage.load_ms"] += tracing.load_ms(setup_spans)
    metrics.update(_kind_ms(traced, statistics.median if kind == "serve"
                            else statistics.fmean))
    metrics.update({"serve.cache_hit_ratio": 0.0, "serve.queue_wait_ms": 0.0,
                    "serve.rejected_share": 0.0, "cli.interp_ms": 0.0,
                    "cli.import_ms": 0.0, "cli.load_ms": 0.0,
                    "cli.query_ms": 0.0})
    if kind == "serve":
        metrics["serve.cache_hit_ratio"] = statistics.fmean(
            [b["cache_hit_ratio"] for b in traced])
        metrics["serve.queue_wait_ms"] = 1000.0 * stats.quiet_decile(
            [b["queue_wait"] for b in traced])
        metrics["serve.rejected_share"] = \
            sum(b["rejected"] for b in traced) / operations
    if kind == "cli":
        interp, imported = startup
        metrics["cli.interp_ms"] = 1000.0 * interp
        metrics["cli.import_ms"] = 1000.0 * (imported - interp)
        per_op = 1000.0 / operations
        metrics["cli.load_ms"] = per_op * sum(
            s[tracing.END] - s[tracing.START] for s in spans
            if s[tracing.NAME] in ("read_edgelist", "Database.load_graph"))
        metrics["cli.query_ms"] = per_op * sum(
            s[tracing.END] - s[tracing.START] for s in spans
            if s[tracing.NAME] == "Database.query")
        # start-up is measured around bare interpreters, not spanned
        metrics["trace.coverage"] += imported * operations / wall
    metrics["trace.overhead_ratio"] = _op_ms(traced) / _op_ms(plain)
    outcome.metrics = metrics
    return outcome


def _windows(spans, blocks):
    """Split the daemon's spans into those of requests begun inside a
    traced block's ``(begun, ended)`` and those before the first
    (set-up)."""
    by_id = {span[tracing.ID]: span for span in spans}

    def root_start(span):
        while span[tracing.PARENT] is not None:
            span = by_id[span[tracing.PARENT]]
        return span[tracing.START]
    inside, before = [], []
    for span in spans:
        started = root_start(span)
        if any(begun <= started <= ended for begun, ended in blocks):
            inside.append(span)
        elif started < blocks[0][0]:
            before.append(span)
    return inside, before


def _keep_trace(workload, spans):
    """``out/trace_<workload>.json``: the trace the README walks."""
    os.makedirs(engines.OUT, exist_ok=True)
    tracing.dump(spans, os.path.join(engines.OUT,
                                     "trace_%s.json" % workload))
