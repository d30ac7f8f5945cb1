"""Telemetry overhead: the pipeline must be ~free when off, cheap on.

The continuous-telemetry pipeline (:mod:`repro.obs.telemetry`) wraps
every query with a write-ahead journal entry, a structured log record,
and lifetime series updates.  The acceptance bar is that running it
*fully on* — journal, JSONL sink, flight ring, labeled series — costs
at most :data:`OVERHEAD_BUDGET` (2%) of wall time on the codegen smoke
workload (repeated triangle / 4-clique counting, the same regime
``bench_codegen.py`` measures), and that telemetry *off* stays a single
``is None`` test on the hot path.

The 2% is a statement about multi-millisecond queries (it was set on
14.7 ms ones), so the rows pin ``execution_mode="interpreted"``, where
this workload still takes that long.  The default engine's block
kernels answer the same queries in ~0.4 ms, and the wrapper's cost
does not shrink with the query, so there the same bar is held as the
absolute per-query cost it stood for: :data:`WRAPPER_BUDGET_SECONDS`
(300 us = 2% of 14.7 ms).

Three engine rows per run:

``off``
    Cached execution on the interpreter, no telemetry — the baseline.
``telemetry``
    Memory-only :class:`~repro.obs.telemetry.TelemetryHub` (rings and
    series, no files).
``telemetry+disk``
    The full pipeline: in-flight journal, rotating JSONL query log,
    flight recorder, OpenMetrics file at close.

Wall-clock diffs of whole query loops are noisy (the overhead is
hundreds of microseconds under multi-millisecond queries), so the
acceptance number comes from *in-situ attribution*: the telemetry
wrapper's own time is measured around the inner execution inside real
telemetry-on queries, per query, and summarized by the median (robust
to GC / scheduler spikes).  The ``wrapper-overhead`` JSON row stamps
``speedup = OVERHEAD_BUDGET / measured share`` so the perf-diff gate
(`report.py --diff`) fails loudly if instrumentation cost ever grows
past the budget — a wall-clock speedup ratio would barely move on a
10x instrumentation regression, this ratio goes to 0.2.

Run standalone for a quick report::

    python benchmarks/bench_telemetry.py --smoke
"""

import argparse
import statistics
import tempfile
import time

import pytest

from repro import Database
from repro.graphs import FOUR_CLIQUE_COUNT, TRIANGLE_COUNT, uniform_graph

#: Acceptance bar: telemetry fully on costs at most this share of wall
#: time on the codegen smoke workload.
OVERHEAD_BUDGET = 0.02

#: The same bar as an absolute per-query wrapper cost, for the default
#: engine's sub-millisecond queries: 2% of the 14.7 ms queries the
#: budget above was set on.
WRAPPER_BUDGET_SECONDS = 300e-6

ROWS = ["off", "telemetry", "telemetry+disk"]

#: The codegen smoke workload: one repetition = both pattern queries.
QUERIES = [
    ("triangle", TRIANGLE_COUNT),
    ("4-clique", FOUR_CLIQUE_COUNT),
]

#: (nodes, edges, repetitions) — matches bench_codegen.py.
FULL_SCALE = (120, 480, 25)
SMOKE_SCALE = (80, 280, 8)

_EDGES = {}
_DBS = {}


def bench_edges(scale=FULL_SCALE):
    if scale not in _EDGES:
        nodes, edges, _ = scale
        _EDGES[scale] = [tuple(e) for e in uniform_graph(nodes, edges,
                                                         seed=13)]
    return _EDGES[scale]


def telemetry_db(label, scale=FULL_SCALE, execution_mode="interpreted"):
    """Cached warmed Database for one row; tries and plan cache are
    built outside every measurement."""
    key = (label, scale, execution_mode)
    if key not in _DBS:
        db = Database(execution_mode=execution_mode)
        db.load_graph("Edge", bench_edges(scale), prune=True)
        for _, query in QUERIES:
            db.query(query)
        if label == "telemetry":
            db.enable_telemetry()
        elif label == "telemetry+disk":
            db.enable_telemetry(directory=tempfile.mkdtemp(
                prefix="bench-telemetry-"))
        _DBS[key] = db
    return _DBS[key]


def run_workload(db, reps):
    result = None
    for _ in range(reps):
        for _, query in QUERIES:
            result = db.query(query).scalar
    return result


def best_of(fn, rounds=3):
    times = []
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def wrapper_overhead(db, samples=60):
    """In-situ telemetry cost share on the codegen smoke workload.

    Runs ``samples`` repetitions of the workload on a telemetry-on
    database with a timing shim around the inner (pre-telemetry)
    execution path, so each query yields one (outer - inner) wrapper
    sample.  Returns ``(share, median_wrapper_seconds,
    mean_inner_seconds)`` where ``share`` is the median wrapper cost
    divided by the mean per-query execution time — medians keep one GC
    pause or scheduler preemption from polluting the estimate.
    """
    assert db.telemetry is not None
    inner_times = []
    wrapper_times = []
    real = db._query_plain

    def shim(text):
        started = time.perf_counter()
        result = real(text)
        inner_times.append(time.perf_counter() - started)
        return result

    db._query_plain = shim
    try:
        for _ in range(samples):
            for _, query in QUERIES:
                started = time.perf_counter()
                db.query(query)
                outer = time.perf_counter() - started
                wrapper_times.append(outer - inner_times[-1])
    finally:
        db._query_plain = real
    median_wrapper = statistics.median(wrapper_times)
    mean_inner = statistics.fmean(inner_times)
    return median_wrapper / mean_inner, median_wrapper, mean_inner


# -- timed rows ---------------------------------------------------------------


@pytest.mark.parametrize("label", ROWS)
def test_workload_with_telemetry(benchmark, label):
    from conftest import run_or_timeout
    benchmark.group = "telemetry:codegen-smoke"
    db = telemetry_db(label)
    reps = FULL_SCALE[2]

    def run():
        return run_workload(db, reps)

    result = run_or_timeout(benchmark, run)
    benchmark.extra_info["result"] = result
    benchmark.extra_info["repetitions"] = reps
    if db.telemetry is not None:
        benchmark.extra_info["queries_logged"] = db.telemetry.queries


# -- shape assertions (CI runs these without timing) --------------------------


def test_shape_off_by_default():
    """No hub unless asked for: ``query`` dispatches on one ``is
    None`` test and never touches telemetry code."""
    db = Database()
    assert db.config.telemetry is None
    assert db.telemetry is None


def test_shape_results_identical_with_telemetry():
    for _, query in QUERIES:
        results = {label: telemetry_db(label).query(query).scalar
                   for label in ROWS}
        assert len(set(results.values())) == 1, results


def test_shape_wrapper_overhead_within_budget():
    """Acceptance: the full pipeline costs <= 2% of wall time on the
    codegen smoke workload (in-situ attribution, median wrapper cost).
    """
    db = telemetry_db("telemetry+disk")
    share, median_wrapper, mean_inner = wrapper_overhead(db)
    assert share <= OVERHEAD_BUDGET, \
        "telemetry wrapper %.0fus on %.2fms queries = %.2f%% (> %.0f%%)" \
        % (median_wrapper * 1e6, mean_inner * 1e3, share * 100,
           OVERHEAD_BUDGET * 100)


def test_shape_wrapper_cost_within_budget_on_default_engine():
    """The same bar on the default engine, whose queries are too short
    for a share of wall time to mean anything: an absolute per-query
    wrapper cost."""
    db = telemetry_db("telemetry+disk", execution_mode="compiled")
    _, median_wrapper, mean_inner = wrapper_overhead(db)
    assert median_wrapper <= WRAPPER_BUDGET_SECONDS, \
        "telemetry wrapper %.0fus on %.2fms queries (> %.0fus)" \
        % (median_wrapper * 1e6, mean_inner * 1e3,
           WRAPPER_BUDGET_SECONDS * 1e6)


def test_shape_artifacts_are_valid():
    """The overhead being measured buys valid artifacts: a schema-clean
    query log and strictly valid OpenMetrics exposition."""
    import os
    from repro.obs.openmetrics import validate_openmetrics
    from repro.obs.telemetry import validate_query_log
    db = telemetry_db("telemetry+disk")
    run_workload(db, 2)
    hub = db.telemetry
    count, problems = validate_query_log(
        os.path.join(hub.directory, "queries.jsonl"))
    assert problems == []
    assert count >= 4
    path = hub.write_openmetrics()
    with open(path) as handle:
        assert validate_openmetrics(handle.read()) == []


# -- standalone smoke report --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="telemetry overhead smoke benchmark")
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
    print("telemetry rows, %d reps of triangle+4-clique on "
          "uniform(%d nodes, %d edges):" % (reps, nodes, edge_count))
    queries_per_rep = len(QUERIES)
    # interleave the rounds across rows (and take the min) so slow
    # drift on the host hits every row equally
    timings = {label: [] for label in ROWS}
    for label in ROWS:
        telemetry_db(label, scale)  # warm outside the measurement
    for _ in range(max(args.rounds, 1)):
        for label in ROWS:
            db = telemetry_db(label, scale)
            started = time.perf_counter()
            run_workload(db, reps)
            timings[label].append(time.perf_counter() - started)
    timings = {label: min(times) for label, times in timings.items()}
    for label in ROWS:
        print("  %-16s %7.3fs  vs off %5.2fx"
              % (label, timings[label],
                 timings["off"] / timings[label]))
        from jsonio import bench_row
        # NOTE: no ``speedup`` on the wall rows — sub-millisecond
        # overhead under multi-millisecond queries makes the wall
        # ratio pure noise; the diff-gate signal lives on the
        # wrapper-overhead row below.
        benches.append(bench_row(
            label, "telemetry:codegen-smoke",
            timings[label] / (reps * queries_per_rep),
            repetitions=reps))
    share, median_wrapper, mean_inner = wrapper_overhead(
        telemetry_db("telemetry+disk", scale))
    print("  wrapper: median %.0fus per query on %.2fms queries "
          "= %.2f%% (budget %.0f%%)"
          % (median_wrapper * 1e6, mean_inner * 1e3, share * 100,
             OVERHEAD_BUDGET * 100))
    from jsonio import bench_row
    benches.append(bench_row(
        "wrapper-overhead", "telemetry:codegen-smoke", median_wrapper,
        overhead_pct=round(share * 100, 3),
        speedup=round(OVERHEAD_BUDGET / max(share, 1e-9), 3)))
    if share > OVERHEAD_BUDGET:
        failures.append("telemetry fully on costs %.2f%% (> %.0f%% "
                        "budget)" % (share * 100, OVERHEAD_BUDGET * 100))
    _, default_wrapper, default_inner = wrapper_overhead(
        telemetry_db("telemetry+disk", scale, execution_mode="compiled"))
    print("  default engine: median %.0fus per query on %.2fms queries "
          "(budget %.0fus)"
          % (default_wrapper * 1e6, default_inner * 1e3,
             WRAPPER_BUDGET_SECONDS * 1e6))
    if default_wrapper > WRAPPER_BUDGET_SECONDS:
        failures.append("telemetry wrapper costs %.0fus per query on the "
                        "default engine (> %.0fus budget)"
                        % (default_wrapper * 1e6,
                           WRAPPER_BUDGET_SECONDS * 1e6))
    if args.json:
        from jsonio import write_results
        write_results(args.json, "telemetry", benches)
        print("wrote %d rows to %s" % (len(benches), args.json))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: telemetry overhead within the %.0f%% budget"
          % (OVERHEAD_BUDGET * 100))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
