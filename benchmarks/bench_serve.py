"""Query daemon serving: warm-cache latency, mixed load, invalidation.

The ``repro.serve`` daemon (``repro serve``) keeps one
:class:`~repro.api.Database` alive across requests — tries, plan
cache, dictionary, and the keyed result cache all stay warm — where
the no-daemon alternative pays full database construction (load +
trie build + cold planning) on every request.  This module prices
that gap and proves the cache's surgical invalidation contract under
a real socket round trip.

Rows (group ``serve:triangle-latency``):

``cold``
    Per-request cost without the daemon: construct a fresh
    :class:`Database`, load the edge set, run the triangle count,
    close.  This is what a CLI/batch caller pays today.
``warm-miss``
    Daemon round trip with the result cache defeated (a fresh query
    text per request): socket + admission + a real execution on warm
    tries.
``warm-hit``
    Daemon round trip for a repeated query: socket + admission + a
    result-cache hit served off the event loop.

Acceptance: ``warm-hit`` p50 must beat ``cold`` p50 by >= 10x (the
issue's floor).  In practice the gap is orders of magnitude — a hit
skips parse, planning, and execution entirely.

The mixed-load generator (group ``serve:mixed-load``) drives N client
threads at a 90/10 read/write mix and reports client-observed
p50/p99/QPS; every reply is checked ``ok``.  The invalidation proof
runs a mutation against a relation *outside* the cached query's read
set (hits must survive) and then one *inside* it (the entry must
miss), asserting the daemon's own cache counters and the telemetry
tier counters (``telemetry.result_cache{tier=...}``) agree.

Run standalone::

    python benchmarks/bench_serve.py --smoke
"""

import argparse
import threading
import time

import numpy as np
import pytest

from repro import Database
from repro.serve import QueryService, ServeClient

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
TAG_COUNT = "C(;w:long) :- Tag(x); w=<<COUNT(*)>>."

#: Warm-cache p50 vs cold per-request construction p50 (issue floor).
FLOOR = 10.0

#: (nodes, edges) for the served graph.
FULL_SCALE = (600, 24000)
SMOKE_SCALE = (250, 5000)

#: Mixed-load shape: clients x requests, ~1 write per 10 requests.
MIX_CLIENTS = 4
MIX_REQUESTS = 40
WRITE_EVERY = 10

_GRAPHS = {}


def base_graph(scale=FULL_SCALE, seed=7):
    """Deduplicated random directed edge list as row tuples."""
    if scale not in _GRAPHS:
        nodes, edges = scale
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, nodes, size=(edges * 2, 2),
                           dtype=np.int64)
        raw = raw[raw[:, 0] != raw[:, 1]]
        dedup = np.unique(raw, axis=0)[:edges]
        _GRAPHS[scale] = [tuple(int(v) for v in row) for row in dedup]
    return _GRAPHS[scale]


def fresh_db(scale):
    db = Database()
    db.add_relation("Edge", base_graph(scale))
    db.add_relation("Tag", [(1,), (2,), (3,)])
    return db


def start_service(scale, telemetry=False, telemetry_dir=None, **kwargs):
    """A live daemon over a freshly loaded database."""
    db = fresh_db(scale)
    if telemetry:
        db.enable_telemetry(directory=telemetry_dir)
    return QueryService(db, **kwargs).start()


def percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def head_variant(index):
    """Same body, fresh head name — defeats the result cache while
    keeping execution cost constant (the ``warm-miss`` row)."""
    return TRIANGLES.replace("T(", "T%d(" % index, 1)


# -- measured paths -----------------------------------------------------------


def cold_request(scale):
    """The no-daemon baseline: one full construct-and-query."""
    return fresh_db(scale).query(TRIANGLES).relation.scalar_value


def measure_cold(scale, requests):
    """Client-observed latencies of per-request construction."""
    latencies = []
    value = None
    for _ in range(requests):
        start = time.perf_counter()
        value = cold_request(scale)
        latencies.append(time.perf_counter() - start)
    return latencies, value


def measure_warm(scale, requests):
    """(hit latencies, miss latencies, value) through a live daemon."""
    service = start_service(scale)
    try:
        with ServeClient(port=service.port) as client:
            first = client.query(TRIANGLES, check=True)
            hits, misses = [], []
            for index in range(requests):
                start = time.perf_counter()
                reply = client.query(TRIANGLES, check=True)
                hits.append(time.perf_counter() - start)
                assert reply["cached"] is True, reply
                assert reply["result"] == first["result"]
                start = time.perf_counter()
                client.query(head_variant(index), check=True)
                misses.append(time.perf_counter() - start)
            return hits, misses, first["result"]["value"]
    finally:
        service.stop()


def measure_mixed(scale, clients=MIX_CLIENTS, requests=MIX_REQUESTS):
    """N threads, 90/10 read/write mix; client-observed latencies.

    Returns ``(read latencies, write latencies, wall seconds,
    failures)`` — the QPS denominator is the wall clock of the whole
    storm, so admission queueing shows up in the number.
    """
    service = start_service(scale, max_inflight=clients * 2)
    reads, writes, failures = [], [], []
    lock = threading.Lock()

    def worker(index):
        with ServeClient(port=service.port) as client:
            for step in range(requests):
                if step % WRITE_EVERY == WRITE_EVERY - 1:
                    start = time.perf_counter()
                    reply = client.call_with_retry(
                        "append", name="Tag",
                        tuples=[[100 + index * requests + step]])
                    elapsed = time.perf_counter() - start
                    bucket = writes
                else:
                    text = TRIANGLES if step % 2 else TAG_COUNT
                    start = time.perf_counter()
                    reply = client.call_with_retry("query", text=text)
                    elapsed = time.perf_counter() - start
                    bucket = reads
                with lock:
                    bucket.append(elapsed)
                    if reply["status"] != "ok":
                        failures.append((index, step, reply))

    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(clients)]
        wall = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall
    finally:
        service.stop()
    return reads, writes, wall, failures


def invalidation_proof(scale):
    """Drive the acceptance scenario and return the evidence.

    Sequence: miss, hit, unrelated mutation (``Tag`` is outside the
    triangle query's read set), hit *survives*; related mutation
    (``Edge``), entry invalidated, miss, then hit again.  Evidence is
    the daemon's cache counters plus the telemetry tier counters —
    two independent witnesses of the same tier sequence.
    """
    service = start_service(scale, telemetry=True)
    try:
        with ServeClient(port=service.port) as client:
            tiers = []
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            client.append("Tag", [(99,)], check=True)
            survived = client.query(TRIANGLES, check=True)
            tiers.append(survived["cached"])
            client.append("Edge", [(9990, 9991)], check=True)
            invalidated = client.query(TRIANGLES, check=True)
            tiers.append(invalidated["cached"])
            tiers.append(client.query(TRIANGLES, check=True)["cached"])
            counters = service.db.metrics.snapshot()["counters"]
            return {
                "tiers": tiers,
                "cache": service.cache.snapshot(),
                "telemetry_hits": counters.get(
                    "telemetry.result_cache{tier=hit}", 0),
                "telemetry_misses": counters.get(
                    "telemetry.result_cache{tier=miss}", 0),
            }
    finally:
        service.stop()


def check_invalidation(evidence):
    """Failure strings (empty = the invalidation contract held)."""
    failures = []
    if evidence["tiers"] != [False, True, True, False, True]:
        failures.append(
            "tier sequence %r != [miss, hit, hit-after-unrelated-"
            "mutation, miss-after-related-mutation, hit]"
            % (evidence["tiers"],))
    cache = evidence["cache"]
    if cache["hits"] != 3 or cache["misses"] != 2:
        failures.append("daemon cache counters %r != 3 hits / 2 misses"
                        % (cache,))
    if evidence["telemetry_hits"] != 3 \
            or evidence["telemetry_misses"] != 2:
        failures.append(
            "telemetry tier counters hit=%s miss=%s != 3/2"
            % (evidence["telemetry_hits"],
               evidence["telemetry_misses"]))
    return failures


# -- timed rows ---------------------------------------------------------------


def test_cold_per_request_construction(benchmark):
    from conftest import run_or_timeout
    benchmark.group = "serve:triangle-latency"
    result = run_or_timeout(benchmark,
                            lambda: cold_request(FULL_SCALE),
                            prewarm=False)
    benchmark.extra_info["result"] = result


@pytest.mark.parametrize("row", ["warm-hit", "warm-miss"])
def test_warm_daemon_round_trip(benchmark, row):
    from conftest import run_or_timeout
    benchmark.group = "serve:triangle-latency"
    service = start_service(FULL_SCALE)
    counter = iter(range(10 ** 6))
    try:
        with ServeClient(port=service.port) as client:
            client.query(TRIANGLES, check=True)  # prime the cache

            def hit():
                return client.query(TRIANGLES,
                                    check=True)["result"]["value"]

            def miss():
                return client.query(head_variant(next(counter)),
                                    check=True)["result"]["value"]

            result = run_or_timeout(
                benchmark, hit if row == "warm-hit" else miss,
                prewarm=False)
            benchmark.extra_info["result"] = result
    finally:
        service.stop()


# -- shape assertions ---------------------------------------------------------


def test_shape_warm_results_match_direct_execution():
    """The daemon's answers — hit or miss — equal a direct query."""
    db = fresh_db(SMOKE_SCALE)
    expected = db.query(TRIANGLES).relation.scalar_value
    hits, misses, value = measure_warm(SMOKE_SCALE, requests=3)
    assert value == expected
    assert len(hits) == len(misses) == 3


def test_shape_invalidation_is_surgical():
    evidence = invalidation_proof(SMOKE_SCALE)
    assert not check_invalidation(evidence), evidence


def test_shape_mixed_load_all_ok():
    reads, writes, wall, failures = measure_mixed(
        SMOKE_SCALE, clients=3, requests=12)
    assert not failures, failures[:3]
    assert len(reads) + len(writes) == 3 * 12
    assert wall > 0


# -- standalone smoke / acceptance gate ---------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="query daemon serving benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller graph, a few seconds end to end")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per measured row")
    parser.add_argument("--json", metavar="PATH",
                        help="merge pytest-benchmark-shaped rows into "
                             "PATH (see benchmarks/report.py)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write the invalidation-proof daemon's "
                             "telemetry artifacts into DIR")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    requests = args.requests or (8 if args.smoke else 15)
    print("served graph: %d nodes, %d edges" % scale)

    cold, cold_value = measure_cold(scale, max(3, requests // 3))
    hits, misses, warm_value = measure_warm(scale, requests)
    failures = []
    if warm_value != cold_value:
        failures.append("daemon result %r != direct result %r"
                        % (warm_value, cold_value))
    cold_p50 = percentile(cold, 0.5)
    hit_p50, hit_p99 = percentile(hits, 0.5), percentile(hits, 0.99)
    miss_p50 = percentile(misses, 0.5)
    speedup = cold_p50 / hit_p50
    print("  cold       p50 %8.5fs   (per-request construction)"
          % cold_p50)
    print("  warm-miss  p50 %8.5fs   (daemon, cache defeated)"
          % miss_p50)
    print("  warm-hit   p50 %8.5fs   p99 %8.5fs   speedup %7.1fx"
          % (hit_p50, hit_p99, speedup))
    if speedup < FLOOR:
        failures.append("warm-hit p50 %.2fx over cold (floor %.1fx)"
                        % (speedup, FLOOR))

    reads, writes, wall, mix_failures = measure_mixed(scale)
    total = len(reads) + len(writes)
    qps = total / wall if wall else 0.0
    read_p50 = percentile(reads, 0.5)
    read_p99 = percentile(reads, 0.99)
    write_p50 = percentile(writes, 0.5)
    print("  mixed load: %d clients, %d requests, %.0f req/s" % (
        MIX_CLIENTS, total, qps))
    print("    reads  p50 %8.5fs  p99 %8.5fs" % (read_p50, read_p99))
    print("    writes p50 %8.5fs" % write_p50)
    if mix_failures:
        failures.append("mixed load: %d non-ok replies: %r"
                        % (len(mix_failures), mix_failures[:3]))

    evidence = invalidation_proof(scale)
    failures.extend(check_invalidation(evidence))
    print("  invalidation: tiers %s, telemetry hit=%d miss=%d"
          % (["hit" if t else "miss" for t in evidence["tiers"]],
             evidence["telemetry_hits"], evidence["telemetry_misses"]))
    if args.telemetry:
        service = start_service(scale, telemetry=True,
                                telemetry_dir=args.telemetry)
        with ServeClient(port=service.port) as client:
            client.query(TRIANGLES, check=True)
            client.query(TRIANGLES, check=True)
        service.stop()
        print("  telemetry artifacts in %s" % args.telemetry)

    if args.json:
        from jsonio import bench_row, write_results
        group = "serve:triangle-latency"
        benches = [
            bench_row("cold", group, cold_p50, result=cold_value,
                      speedup=1.0),
            bench_row("warm-miss", group, miss_p50, result=warm_value,
                      speedup=round(cold_p50 / miss_p50, 3)),
            bench_row("warm-hit", group, hit_p50, result=warm_value,
                      p99=round(hit_p99, 6),
                      speedup=round(speedup, 3)),
            bench_row("mixed-read", "serve:mixed-load", read_p50,
                      p99=round(read_p99, 6), qps=round(qps, 1),
                      clients=MIX_CLIENTS),
            bench_row("mixed-write", "serve:mixed-load", write_p50,
                      clients=MIX_CLIENTS),
        ]
        write_results(args.json, "serve", benches)
        print("wrote %d rows to %s" % (len(benches), args.json))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: warm-hit %.1fx over cold (floor %.1fx); invalidation "
          "surgical; %d/%d mixed requests ok"
          % (speedup, FLOOR, total - len(mix_failures), total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
