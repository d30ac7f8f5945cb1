"""Wall-clock floors: the paper-shape assertions that read a clock.

Every assertion about results, counters or the lane-op model is a
tier-1 test (``tests/paper/``, and ``tests/test_lane_op_pins.py`` for
the exact work of the benchmark's ops).  What is left compares clock
readings, which a loaded machine can fail, so it runs here and never
inside the test suite::

    python benchmarks/floors.py

Each floor prints its measured value against its threshold; the exit
status is 1 when any floor fails.  There are no flags: inputs, scales,
rounds and thresholds are fixed below.  These are tripwires on toy
inputs; performance *claims* are made on ``benchmarks/e2e`` only.
"""

import operator
import statistics
import sys
import tempfile
import threading
import time

import numpy as np

from repro import Database
from repro.graphs import (FOUR_CLIQUE_COUNT, MICRO_DATASETS,
                          TRIANGLE_COUNT, load_dataset, neighborhoods,
                          undirect, uniform_graph)

COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
           "<=": operator.le}

#: The triangle count as a materializable view and a daemon query.
TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


def best_of(fn, rounds=3):
    """Best-of-``rounds`` wall time; best-of damps scheduler noise."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def random_edges(nodes, edges, seed):
    """Deduplicated uniform-random directed edges, as int tuples."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, nodes, size=(edges * 2, 2), dtype=np.int64)
    raw = raw[raw[:, 0] != raw[:, 1]]
    return [tuple(int(v) for v in row)
            for row in np.unique(raw, axis=0)[:edges]]


def uniform_db(nodes, edges, seed, prune, **overrides):
    db = Database(**overrides)
    db.load_graph("Edge", [tuple(e) for e in uniform_graph(
        nodes, edges, seed=seed)], prune=prune)
    return db


# -- default engine vs the interpreter ----------------------------------------

def run_repeated(db, query, reps):
    for _ in range(reps):
        db.query(query).scalar


def engine_speedups():
    """The default engine answers a repeated pattern query at least 2x
    faster than the interpreter: both queries on uniform(80, 280) x 8
    repetitions, and the triangle on uniform(120, 480) x 25."""
    checks = []
    for nodes, edges, reps, queries in (
            (80, 280, 8, (("triangle", TRIANGLE_COUNT),
                          ("4-clique", FOUR_CLIQUE_COUNT))),
            (120, 480, 25, (("triangle", TRIANGLE_COUNT),))):
        fused = uniform_db(nodes, edges, 13, prune=True,
                           execution_mode="compiled")
        interpreted = uniform_db(nodes, edges, 13, prune=True,
                                 execution_mode="interpreted")
        for label, query in queries:
            fused.query(query)  # prime the plan cache
            interpreted.query(query)
            fused_time = best_of(lambda: run_repeated(fused, query, reps))
            interpreted_time = best_of(
                lambda: run_repeated(interpreted, query, reps))
            checks.append(("default engine speedup, %s x%d on %d edges"
                           % (label, reps, edges),
                           interpreted_time / fused_time, ">=", 2.0))
    return checks


def phase_split(db, clear_cache):
    """``(compile_ms, execute_ms)`` of one traced triangle count."""
    from repro.obs.explain import category_seconds, phase_totals
    tracer = db.enable_tracing()
    tracer.reset()
    try:
        if clear_cache:
            db._plan_cache.clear()
        db.query(TRIANGLE_COUNT)
    finally:
        db.disable_tracing()
    compile_seconds = sum(seconds for _, seconds
                          in phase_totals(tracer).values())
    return compile_seconds * 1e3, \
        category_seconds(tracer, "execute") * 1e3


def cache_win():
    """The traced phase split puts the plan cache's win in the
    compile phase: a cache-defeating run pays parse, GHD search and
    lowering, a cache hit only the lookup."""
    db = uniform_db(120, 480, 13, prune=True, execution_mode="compiled")
    db.query(TRIANGLE_COUNT)  # prime the plan cache
    fresh_compile, fresh_execute = phase_split(db, clear_cache=True)
    cached_compile, cached_execute = phase_split(db, clear_cache=False)
    return [("execute ms, plan cache cleared", fresh_execute, ">", 0.0),
            ("execute ms, plan cache hit", cached_execute, ">", 0.0),
            ("compile ms, cleared (vs hit)", fresh_compile, ">",
             cached_compile)]


# -- logical optimizer --------------------------------------------------------

def optimize_once(db, text):
    """Frontend + rewrites + planning of every rule; no execution."""
    from repro.lir import OptimizerOptions, optimize_rule, plan_rule
    from repro.query.parser import parse
    options = OptimizerOptions.from_config(db.config)
    for rule in parse(text).rules:
        plan_rule(optimize_rule(rule, db.catalog, options), options)


def optimizer_overhead():
    """The logical pass pipeline stays well under one bag evaluation:
    under 50 ms per rule."""
    checks = []
    for nodes, edges, op in ((80, 280, "<="), (150, 700, "<")):
        db = uniform_db(nodes, edges, 29, prune=False)
        optimize_once(db, TRIANGLE_COUNT)  # warm
        per_rule = best_of(lambda: optimize_once(db, TRIANGLE_COUNT))
        checks.append(("optimizer pipeline ms per rule, %d edges" % edges,
                       per_rule * 1e3, op, 50.0))
    return checks


# -- incremental view maintenance ---------------------------------------------

def delta_vs_rebuild():
    """A triangle-count view refreshed by the delta route beats a full
    re-run by 5x at the 0.1% mutation rate: 300 nodes and 7000 edges,
    best of 5 batches, both rows on the interpreter."""
    nodes, edges, rate, rounds = 300, 7000, 0.001, 5
    base = random_edges(nodes, edges, 11)
    rng = np.random.default_rng(23 + int(rate * 10000))
    databases = {}
    for incremental in (True, False):
        db = Database(incremental_views=incremental,
                      execution_mode="interpreted")
        db.add_relation("Edge", base)
        db.materialize("T", TRIANGLES)
        databases[incremental] = db
    best = {True: float("inf"), False: float("inf")}
    for _ in range(rounds):
        batch = rng.integers(0, nodes, size=(max(1, int(edges * rate)), 2),
                             dtype=np.int64)
        batch = [tuple(int(v) for v in row)
                 for row in batch[batch[:, 0] != batch[:, 1]]]
        for incremental, db in databases.items():
            start = time.perf_counter()
            db.append("Edge", batch)
            db.relation("T").scalar_value
            best[incremental] = min(best[incremental],
                                    time.perf_counter() - start)
    return [("delta refresh speedup over rebuild, 0.1% rate",
             best[False] / best[True], ">=", 5.0)]


# -- query daemon -------------------------------------------------------------

TAG_COUNT = "C(;w:long) :- Tag(x); w=<<COUNT(*)>>."


def served_db():
    """A random directed graph of 250 nodes and 5000 edges, and a
    three-row ``Tag`` relation the triangle query does not read."""
    db = Database()
    db.add_relation("Edge", random_edges(250, 5000, 7))
    db.add_relation("Tag", [(1,), (2,), (3,)])
    return db


def percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(round(q * (len(ordered) - 1))))]


def warm_hit_speedup():
    """A result-cache hit through the daemon beats constructing a
    database per request by 10x at the median: 3 cold requests, 8
    warm hits (each followed by a cache-defeating miss)."""
    from repro.serve import QueryService, ServeClient
    cold = []
    for _ in range(3):
        start = time.perf_counter()
        served_db().query(TRIANGLES).relation.scalar_value
        cold.append(time.perf_counter() - start)
    hits = []
    service = QueryService(served_db()).start()
    try:
        with ServeClient(port=service.port) as client:
            client.query(TRIANGLES, check=True)
            for index in range(8):
                start = time.perf_counter()
                client.query(TRIANGLES, check=True)
                hits.append(time.perf_counter() - start)
                client.query(TRIANGLES.replace("T(", "T%d(" % index, 1),
                             check=True)
    finally:
        service.stop()
    return [("warm-hit p50 speedup over cold construction",
             percentile(cold, 0.5) / percentile(hits, 0.5), ">=", 10.0)]


def mixed_load_wall():
    """3 client threads x 12 requests, every tenth a write: the storm
    takes measurable wall time."""
    from repro.serve import QueryService, ServeClient
    clients, requests = 3, 12
    service = QueryService(served_db(), max_inflight=clients * 2).start()

    def worker(index):
        with ServeClient(port=service.port) as client:
            for step in range(requests):
                if step % 10 == 9:
                    client.call_with_retry(
                        "append", name="Tag",
                        tuples=[[100 + index * requests + step]])
                else:
                    client.call_with_retry(
                        "query", text=TRIANGLES if step % 2 else TAG_COUNT)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    try:
        wall = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        wall = time.perf_counter() - wall
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("mixed-load client did not finish")
    finally:
        service.stop()
    return [("mixed-load storm wall s", wall, ">", 0.0)]


# -- telemetry ----------------------------------------------------------------

def wrapper_overhead(db, samples=60):
    """``(share, median wrapper seconds)`` of the telemetry wrapper
    around the inner execution, per query, over ``samples`` runs of
    the triangle and 4-clique counts: the median wrapper cost over the
    mean inner execution time."""
    inner_times, wrapper_times = [], []
    real = db._query_plain

    def shim(text):
        started = time.perf_counter()
        result = real(text)
        inner_times.append(time.perf_counter() - started)
        return result

    db._query_plain = shim
    try:
        for _ in range(samples):
            for query in (TRIANGLE_COUNT, FOUR_CLIQUE_COUNT):
                started = time.perf_counter()
                db.query(query)
                wrapper_times.append(time.perf_counter() - started
                                     - inner_times[-1])
    finally:
        db._query_plain = real
    median_wrapper = statistics.median(wrapper_times)
    return median_wrapper / statistics.fmean(inner_times), median_wrapper


def telemetry_overhead():
    """Telemetry fully on (journal, JSONL log, flight ring, series)
    costs at most 2% of wall time on the interpreter's multi-ms
    queries, and at most 300 us per query (2% of the 14.7 ms queries
    the budget was set on) on the default engine's sub-ms ones."""
    checks = []
    for nodes, edges in ((80, 280), (120, 480)):
        for mode in ("interpreted", "compiled"):
            with tempfile.TemporaryDirectory(
                    prefix="floors-telemetry-") as directory:
                db = uniform_db(nodes, edges, 13, prune=True,
                                execution_mode=mode)
                for query in (TRIANGLE_COUNT, FOUR_CLIQUE_COUNT):
                    db.query(query)
                db.enable_telemetry(directory=directory)
                share, median_wrapper = wrapper_overhead(db)
                db.disable_telemetry()
            if mode == "interpreted":
                checks.append(("telemetry share %%, interpreter, "
                               "%d edges" % edges, share * 100, "<=",
                               2.0))
            else:
                checks.append(("telemetry wrapper us, default engine, "
                               "%d edges" % edges, median_wrapper * 1e6,
                               "<=", 300.0))
    return checks


# -- compressed layouts -------------------------------------------------------

def decode_tax():
    """Decoding the variant layout costs more than uint's no-op
    (Appendix C), over the Google+ analog's neighborhoods."""
    from repro.sets import UintSet, VariantSet
    hoods = [hood for hood in neighborhoods(undirect(
        load_dataset("googleplus"))) if hood.size]
    encoded = {layout: [layout(hood) for hood in hoods]
               for layout in (UintSet, VariantSet)}
    times = {}
    for layout, sets in encoded.items():
        start = time.perf_counter()
        for s in sets:
            s.to_array()
        times[layout] = time.perf_counter() - start
    return [("variant decode s (vs uint decode s)", times[VariantSet],
             ">", times[UintSet])]


# -- Table 15: layout-optimizer decision overhead -----------------------------

def decision_overhead():
    """The set and block layout optimizers' per-set decisions are a
    fraction of a triangle count's wall time on every micro dataset
    (the paper: single-digit percentages)."""
    fractions = []
    for dataset in MICRO_DATASETS:
        edges = [tuple(e) for e in load_dataset(dataset)]
        for level in ("set", "block"):
            db = Database(layout_level=level)
            db.load_graph("Edge", edges, prune=True)
            start = time.perf_counter()
            db.query(TRIANGLE_COUNT)
            elapsed = time.perf_counter() - start
            decision = sum(trie.optimizer.decision_seconds
                           for trie in db._trie_cache._tries.values())
            fractions.append(decision / elapsed if elapsed else 0.0)
    return [("Table 15 decision share, lowest", min(fractions), ">=", 0.0),
            ("Table 15 decision share, highest", max(fractions), "<", 0.9)]


FLOORS = (engine_speedups, cache_win, optimizer_overhead,
          delta_vs_rebuild, warm_hit_speedup, mixed_load_wall,
          telemetry_overhead, decode_tax, decision_overhead)


def main():
    failed = 0
    for floor in FLOORS:
        for label, value, op, threshold in floor():
            ok = COMPARE[op](value, threshold)
            failed += not ok
            print("%-52s %10.4g %-2s %-10.4g %s"
                  % (label, value, op, threshold, "ok" if ok else "FAIL"))
            sys.stdout.flush()
    print("%d floor(s) failed" % failed if failed else "OK: every floor held")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
