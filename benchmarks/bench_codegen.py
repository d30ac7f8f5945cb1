"""Default engine: interpreted vs uncached vs cached block kernels.

EmptyHeaded compiles every query and amortizes the cost by caching the
compiled plan (§3.3).  This module measures that trade at laptop
scale: a *repeated* pattern query on a small graph, so the per-query
pipeline overhead (parse → GHD search → bag lowering) is a visible
share of the total.

Three engine rows per query:

``interpreted``
    The generic :class:`~repro.engine.generic_join.BagEvaluator`; every
    repetition re-parses and re-plans, every binding is a Python loop
    iteration.
``uncached``
    The default engine with the plan cache cleared between
    repetitions, so this row prices the full compile pipeline on top
    of the block kernels.
``fused``
    The default engine as shipped: after the first repetition every
    query is answered from the plan cache (the ``ExecStats`` counters
    prove zero parses / GHD builds / lowerings on the cached path) and
    every bag runs as numpy block operations
    (:mod:`repro.engine.fused`).  (The label is the trajectory's name
    for this row since ``BENCH_1``; the per-tuple generated loop nests
    it was once compared against no longer exist.)

Shape assertions pin the acceptance claims: bit-identical results
across rows, cached repetitions skip the whole front of the pipeline,
and the default engine beats interpreted wall-clock on repeated
triangle counting by at least 2x (in practice far more).

These rows are a quick local sanity check; performance claims are made
on ``benchmarks/e2e`` only (``docs/benchmarks.md``).

Run standalone for a quick report::

    python benchmarks/bench_codegen.py --smoke
"""

import argparse
import time

import pytest

from repro import Database
from repro.graphs import FOUR_CLIQUE_COUNT, TRIANGLE_COUNT, uniform_graph

#: (label, Database overrides, clear plan cache between repetitions?)
ROWS = [
    ("interpreted", {"execution_mode": "interpreted"}, False),
    ("uncached", {"execution_mode": "compiled"}, True),
    ("fused", {"execution_mode": "compiled"}, False),
]

QUERIES = [
    ("triangle", TRIANGLE_COUNT),
    ("4-clique", FOUR_CLIQUE_COUNT),
]

#: (nodes, edges, repetitions) — small graph, many repetitions, so the
#: parse/GHD/lowering overhead is a visible term.
FULL_SCALE = (120, 480, 25)
SMOKE_SCALE = (80, 280, 8)

_EDGES = {}
_DBS = {}


def bench_edges(scale=FULL_SCALE):
    """Cached uniform edge list for one scale."""
    if scale not in _EDGES:
        nodes, edges, _ = scale
        _EDGES[scale] = [tuple(e) for e in uniform_graph(nodes, edges,
                                                         seed=13)]
    return _EDGES[scale]


def codegen_db(label, scale=FULL_SCALE):
    """Cached warmed Database for one benchmark row."""
    key = (label, scale)
    if key not in _DBS:
        overrides = {row_label: o for row_label, o, _ in ROWS}[label]
        db = Database(**overrides)
        db.load_graph("Edge", bench_edges(scale), prune=True)
        db.query(TRIANGLE_COUNT)  # build tries outside the measurement
        _DBS[key] = db
    return _DBS[key]


def run_repeated(db, query, reps, clear_cache=False):
    """Run ``query`` ``reps`` times; optionally defeat the plan cache."""
    result = None
    for _ in range(reps):
        if clear_cache:
            db._plan_cache.clear()
        result = db.query(query).scalar
    return result


def phase_split(db, query, clear_cache=False):
    """Compile-vs-execute wall-time split of one traced repetition.

    Runs the query once under the span tracer (:mod:`repro.obs`) and
    returns ``(compile_ms, execute_ms)``: time in the front of the
    pipeline (parse, GHD search, attribute ordering, codegen,
    plan-cache lookups) vs time executing bags.  Tracing is turned off
    again before returning, so the timed repetitions stay untraced.
    """
    from repro.obs.explain import category_seconds, phase_totals
    tracer = db.enable_tracing()
    tracer.reset()
    try:
        if clear_cache:
            db._plan_cache.clear()
        db.query(query)
    finally:
        db.disable_tracing()
    compile_seconds = sum(seconds for _, seconds
                          in phase_totals(tracer).values())
    execute_seconds = category_seconds(tracer, "execute")
    return compile_seconds * 1e3, execute_seconds * 1e3


def best_of(fn, rounds=3):
    """Best-of-``rounds`` wall time; best-of damps scheduler noise."""
    times = []
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# -- timed rows ---------------------------------------------------------------


@pytest.mark.parametrize("query_label,query", QUERIES,
                         ids=[label for label, _ in QUERIES])
@pytest.mark.parametrize("label", [label for label, _, _ in ROWS])
def test_repeated_pattern_query(benchmark, label, query_label, query):
    from conftest import run_or_timeout
    benchmark.group = "codegen:%s" % query_label
    db = codegen_db(label)
    clear_cache = dict((row, c) for row, _, c in ROWS)[label]
    reps = FULL_SCALE[2]

    def run():
        return run_repeated(db, query, reps, clear_cache=clear_cache)

    before = db.counter.total_ops
    result = run_or_timeout(benchmark, run)
    benchmark.extra_info["result"] = result
    benchmark.extra_info["repetitions"] = reps
    benchmark.extra_info["lane_ops_per_rep"] = \
        (db.counter.total_ops - before) // max(reps, 1)
    stats = db.last_stats
    if stats is not None and stats.execution_mode == "compiled":
        benchmark.extra_info["last_rep_parses"] = stats.parses
        benchmark.extra_info["last_rep_ghd_builds"] = stats.ghd_builds
        benchmark.extra_info["last_rep_codegen_runs"] = stats.codegen_runs
        benchmark.extra_info["plan_cache_hits"] = stats.plan_cache_hits
        benchmark.extra_info["fused_blocks"] = stats.fused_blocks
    # One extra traced repetition, outside the timed loop, prices the
    # compile vs execute split for the report's phase-breakdown table.
    compile_ms, execute_ms = phase_split(db, query,
                                         clear_cache=clear_cache)
    benchmark.extra_info["phase_compile_ms"] = round(compile_ms, 3)
    benchmark.extra_info["phase_execute_ms"] = round(execute_ms, 3)


# -- shape assertions (CI runs these without timing) --------------------------


def test_shape_modes_agree_bit_for_bit():
    """Acceptance: every row computes the same counts."""
    for _, query in QUERIES:
        results = {label: codegen_db(label).query(query).scalar
                   for label, _, _ in ROWS}
        assert len(set(results.values())) == 1, results


def test_shape_cached_run_skips_parse_ghd_codegen():
    """Acceptance: a cache-hit repetition performs zero parses, zero
    GHD builds, and zero bag lowerings — only kernel calls."""
    db = codegen_db("fused")
    db.query(TRIANGLE_COUNT)  # prime
    db.query(TRIANGLE_COUNT)
    stats = db.last_stats
    assert stats.parses == 0
    assert stats.ghd_builds == 0
    assert stats.codegen_runs == 0
    assert stats.bag_codegen_reuses == 0
    assert stats.plan_cache_hits >= 1
    assert stats.plan_cache_misses == 0
    assert stats.compiled_bag_calls >= 1


def test_shape_cache_clearing_forces_recompiles():
    """The ``uncached`` row really does pay the pipeline every rep."""
    db = codegen_db("uncached")
    db._plan_cache.clear()
    db.query(TRIANGLE_COUNT)
    first = db.last_stats
    db._plan_cache.clear()
    db.query(TRIANGLE_COUNT)
    second = db.last_stats
    for stats in (first, second):
        assert stats.parses == 1
        assert stats.ghd_builds >= 1
        assert stats.plan_cache_misses >= 1


def test_shape_fused_runs_block_kernels_bit_for_bit():
    """Acceptance: the default row answers every bag through a block
    kernel (no interpreter fallback) with results identical to the
    interpreter's."""
    fused = codegen_db("fused")
    interpreted = codegen_db("interpreted")
    for _, query in QUERIES:
        assert fused.query(query).scalar \
            == interpreted.query(query).scalar
    stats = fused.last_stats
    assert stats.fused_blocks == stats.compiled_bag_calls >= 1
    assert stats.fused_fallbacks == 0


def test_shape_fused_beats_interpreted_2x():
    """Acceptance: the default engine is at least 2x faster than the
    interpreter on repeated triangle counting (it removes both the
    per-repetition planning and every per-binding Python dispatch, and
    lands far above the floor)."""
    fused = codegen_db("fused")
    interpreted = codegen_db("interpreted")
    reps = FULL_SCALE[2]
    fused.query(TRIANGLE_COUNT)   # prime the plan cache
    fused_time = best_of(
        lambda: run_repeated(fused, TRIANGLE_COUNT, reps))
    interpreted_time = best_of(
        lambda: run_repeated(interpreted, TRIANGLE_COUNT, reps))
    assert fused_time * 2.0 <= interpreted_time, \
        "fused %.4fs vs interpreted %.4fs" % (fused_time,
                                              interpreted_time)


def test_shape_phase_split_shows_cache_win():
    """The traced phase split localizes the cached win in the compile
    phase: a cache-defeating repetition pays parse+GHD+lowering, a
    cache-hit repetition only pays the plan-cache lookup."""
    db = codegen_db("fused")
    db.query(TRIANGLE_COUNT)  # prime the plan cache
    fresh_compile, fresh_execute = phase_split(db, TRIANGLE_COUNT,
                                               clear_cache=True)
    cached_compile, cached_execute = phase_split(db, TRIANGLE_COUNT)
    assert fresh_execute > 0
    assert cached_execute > 0
    assert fresh_compile > cached_compile


def test_shape_both_engines_charge_the_op_model():
    """Kernels charge ``fused_block`` elements where the interpreter
    charges per-intersection lane ops — neither path does uncounted
    work."""
    interpreted = codegen_db("interpreted")
    fused = codegen_db("fused")
    fused.query(TRIANGLE_COUNT)  # prime
    before = interpreted.counter.total_ops
    interpreted.query(TRIANGLE_COUNT)
    assert interpreted.counter.total_ops > before
    before = fused.counter.total_ops
    fused.query(TRIANGLE_COUNT)
    assert fused.counter.total_ops > before
    assert "fused_block" in fused.counter.by_algorithm


# -- standalone smoke report --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="default engine smoke benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, a few seconds end to end")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="merge pytest-benchmark-shaped rows into "
                             "PATH (see benchmarks/report.py --diff)")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    nodes, edge_count, reps = scale
    failures = []
    benches = []
    for query_label, query in QUERIES:
        print("%s x%d on uniform(%d nodes, %d edges):"
              % (query_label, reps, nodes, edge_count))
        timings = {}
        results = {}
        for label, _, clear_cache in ROWS:
            db = codegen_db(label, scale)
            results[label] = db.query(query).scalar  # parity + prime
            timings[label] = best_of(
                lambda: run_repeated(db, query, reps,
                                     clear_cache=clear_cache),
                rounds=args.rounds)
            detail = ""
            stats = db.last_stats
            extra = {}
            if stats is not None and stats.execution_mode == "compiled":
                detail = ("  parses=%d ghd=%d codegen=%d cache_hits=%d"
                          % (stats.parses, stats.ghd_builds,
                             stats.codegen_runs, stats.plan_cache_hits))
                extra["fused_blocks"] = stats.fused_blocks
            speedup = timings["interpreted"] / timings[label]
            print("  %-16s %7.3fs  speedup=%5.2fx%s"
                  % (label, timings[label], speedup, detail))
            from jsonio import bench_row
            benches.append(bench_row(
                label, "codegen:%s" % query_label,
                timings[label] / reps, result=results[label],
                repetitions=reps, speedup=round(speedup, 3), **extra))
        if len(set(results.values())) != 1:
            failures.append("%s: modes disagree: %r"
                            % (query_label, results))
        if timings["fused"] * 2.0 > timings["interpreted"]:
            failures.append("%s: fused (%.3fs) did not hit the 2x "
                            "acceptance floor over interpreted "
                            "(%.3fs)"
                            % (query_label, timings["fused"],
                               timings["interpreted"]))
    if args.json:
        from jsonio import write_results
        write_results(args.json, "codegen", benches)
        print("wrote %d rows to %s" % (len(benches), args.json))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: the default engine beats interpreted by 2x+")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
