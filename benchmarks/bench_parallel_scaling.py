"""Parallel scaling: skew-aware work stealing vs static partitioning.

The paper runs every benchmark on 48 threads and credits *dynamic load
balancing* for its parallel scalability on power-law graphs (§5.1.2).
This module measures that claim at laptop scale: triangle counting on a
Chung-Lu power-law graph, serial vs 2/4 workers, with the old
``np.array_split`` static partitioner as the straggler baseline.

Reported per row (``extra_info`` / the ``--smoke`` table):

``speedup``
    Wall-clock speedup over the serial engine.
``busy_ratio``
    Max/min per-worker busy seconds from ``Database.last_stats`` — the
    straggler penalty.  Degree-ordered ids put every hub in the static
    partitioner's first chunk, so its ratio explodes while the
    work-stealing queue keeps workers within a small factor.
``morsel_time_ratio``
    Max/min per-morsel wall time — how evenly the degree-based cost
    model sliced the level-0 candidates.

The ``serial`` / ``steal`` / ``static`` rows pin the interpreter, whose
per-binding morsel loops are what the scheduling claims were made on.
Two fused rows price the same schedule on the default engine:
``fused-4w`` routes every morsel through the numpy block kernel
(:mod:`repro.engine.fused`), and ``fused-shared-4w`` additionally
serves the trie arrays from the database's shared-memory arena
(``shared_tries``), so forked workers map them zero-copy instead of
paying copy-on-write churn.

Shape assertions (run in CI without timing) pin the acceptance claims:
stealing's busy ratio is far below static's, stealing beats static on
wall-clock, and fused+shared beats the interpreted steal row by at
least 2x.  The steal-vs-static claim holds on any core count: on a
multi-core host stealing wins through balance; on a single-core host it
wins by refusing to oversubscribe (the static strategy always forks one
process per worker, paying fork + copy-on-write overhead for no
parallelism).  The fused 2x floor likewise holds single-core — it is a
dispatch-elimination win, not a scaling win.

Run standalone for a quick report::

    python benchmarks/bench_parallel_scaling.py --smoke
"""

import argparse
import time

import pytest

from repro import Database
from repro.graphs import TRIANGLE_COUNT, chung_lu_graph

#: (label, Database overrides) — the benchmark's rows.
_INTERPRETED = {"execution_mode": "interpreted"}
ROWS = [
    ("serial", dict(_INTERPRETED)),
    ("steal-2w", dict(_INTERPRETED, parallel_workers=2,
                      parallel_threshold=4)),
    ("steal-4w", dict(_INTERPRETED, parallel_workers=4,
                      parallel_threshold=4)),
    ("static-4w", dict(_INTERPRETED, parallel_workers=4,
                       parallel_threshold=4,
                       parallel_strategy="static")),
    ("fused-4w", {"parallel_workers": 4, "parallel_threshold": 4,
                  "execution_mode": "compiled"}),
    ("fused-shared-4w", {"parallel_workers": 4, "parallel_threshold": 4,
                         "execution_mode": "compiled",
                         "shared_tries": True}),
]

#: Full-size skewed input (benchmark + shape tests).
FULL_SCALE = (2000, 24000)
#: CI-smoke input: same shape, a few seconds end to end.
SMOKE_SCALE = (600, 5000)

_EDGES = {}
_DBS = {}


def skewed_edges(scale=FULL_SCALE):
    """Cached Chung-Lu power-law edge list (heavy hubs, long tail)."""
    if scale not in _EDGES:
        nodes, edges = scale
        _EDGES[scale] = [tuple(e) for e in chung_lu_graph(
            nodes, edges, exponent=1.65, seed=3)]
    return _EDGES[scale]


def scaling_db(label, scale=FULL_SCALE):
    """Cached warmed Database for one benchmark row."""
    key = (label, scale)
    if key not in _DBS:
        overrides = dict(ROWS)[label]
        db = Database(**overrides)
        db.load_graph("Edge", skewed_edges(scale), prune=True)
        db.query(TRIANGLE_COUNT)  # build tries outside the measurement
        _DBS[key] = db
    return _DBS[key]


def best_of(fn, rounds=3):
    """Best-of-``rounds`` wall time; best-of damps scheduler noise."""
    times = []
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# -- timed rows ---------------------------------------------------------------


@pytest.mark.parametrize("label", [label for label, _ in ROWS])
def test_triangle_scaling(benchmark, label):
    from conftest import run_or_timeout
    benchmark.group = "parallel:scaling"
    db = scaling_db(label)

    def run():
        return db.query(TRIANGLE_COUNT).scalar

    result = run_or_timeout(benchmark, run)
    benchmark.extra_info["triangles"] = result
    stats = db.last_stats
    if stats is not None:
        benchmark.extra_info["mode"] = stats.mode
        benchmark.extra_info["morsels"] = stats.n_morsels
        benchmark.extra_info["steals"] = stats.steals
        benchmark.extra_info["busy_ratio"] = round(stats.busy_ratio(), 2)
        benchmark.extra_info["morsel_time_ratio"] = \
            round(stats.morsel_time_ratio(), 2)
        benchmark.extra_info["fused_blocks"] = stats.fused_blocks
        benchmark.extra_info["shm_bytes_mapped"] = stats.shm_bytes_mapped


# -- shape assertions (CI runs these without timing) --------------------------


def test_shape_stealing_eliminates_straggler_imbalance():
    """Acceptance: per-morsel timings exist and the steal scheduler's
    max/min worker-busy ratio is far below the static partitioner's."""
    steal = scaling_db("steal-4w")
    static = scaling_db("static-4w")
    steal.query(TRIANGLE_COUNT)
    steal_stats = steal.last_stats
    static.query(TRIANGLE_COUNT)
    static_stats = static.last_stats
    # Per-morsel timings are reported, and stealing slices far finer
    # than static's one-chunk-per-worker split.
    assert steal_stats.n_morsels > static_stats.n_morsels
    assert all(m.seconds >= 0.0 for m in steal_stats.morsels)
    # Degree-ordered ids concentrate the hubs in static's first chunk:
    # its busy ratio explodes while stealing stays near balanced.
    assert steal_stats.busy_ratio() < static_stats.busy_ratio()
    assert static_stats.busy_ratio() >= 2.0 * steal_stats.busy_ratio()


def test_shape_steal_beats_static_wall_clock():
    """Acceptance: 4-worker stealing beats the old static partitioner.

    Multi-core hosts: balance (static serializes on the hub chunk).
    Single-core hosts: the steal scheduler clamps its fork count to the
    CPUs actually available, while static pays 4 forks of copy-on-write
    trie state for zero parallelism.
    """
    steal = scaling_db("steal-4w")
    static = scaling_db("static-4w")
    steal_time = best_of(lambda: steal.query(TRIANGLE_COUNT))
    static_time = best_of(lambda: static.query(TRIANGLE_COUNT))
    assert steal_time < static_time


# -- fused shape assertions ---------------------------------------------------


def test_shape_fused_shared_maps_arena_and_matches():
    """Acceptance: the fused+shared row answers through block kernels
    served from the shared-memory arena, bit-identically to the
    per-tuple steal row."""
    baseline = scaling_db("steal-4w")
    fused = scaling_db("fused-shared-4w")
    expected = baseline.query(TRIANGLE_COUNT).scalar
    assert fused.query(TRIANGLE_COUNT).scalar == expected
    stats = fused.last_stats
    assert stats.fused_blocks >= 1
    assert stats.shm_bytes_mapped > 0
    assert fused.arena is not None and not fused.arena.closed


def test_shape_fused_shared_beats_per_tuple_2x():
    """Acceptance: fused block kernels over shared tries beat the
    per-tuple steal scheduler by at least 2x wall-clock on the same
    morsel schedule.  This is a dispatch-elimination win, so it holds
    on single-core hosts where the steal scheduler clamps to inline
    execution."""
    steal = scaling_db("steal-4w")
    fused = scaling_db("fused-shared-4w")
    steal_time = best_of(lambda: steal.query(TRIANGLE_COUNT))
    fused_time = best_of(lambda: fused.query(TRIANGLE_COUNT))
    assert fused_time * 2.0 <= steal_time, \
        "fused+shared %.4fs vs per-tuple steal %.4fs" \
        % (fused_time, steal_time)


# -- standalone smoke report --------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="parallel scaling smoke benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, a few seconds end to end")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", metavar="PATH",
                        help="merge pytest-benchmark-shaped rows into "
                             "PATH (see benchmarks/report.py --diff)")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    nodes, edge_count = scale
    print("triangle counting, chung_lu(%d nodes, %d edges, 1.65):"
          % (nodes, edge_count))
    timings = {}
    benches = []
    for label, _ in ROWS:
        db = scaling_db(label, scale)
        result = db.query(TRIANGLE_COUNT).scalar  # prime + parity
        timings[label] = best_of(lambda: db.query(TRIANGLE_COUNT),
                                 rounds=args.rounds)
        stats = db.last_stats
        detail = ""
        extra = {}
        if stats is not None:
            detail = ("  mode=%-7s morsels=%3d steals=%2d "
                      "busy_ratio=%6.2f morsel_time_ratio=%6.2f"
                      % (stats.mode, stats.n_morsels, stats.steals,
                         stats.busy_ratio(), stats.morsel_time_ratio()))
            extra = {"mode": stats.mode, "morsels": stats.n_morsels,
                     "busy_ratio": round(stats.busy_ratio(), 2),
                     "fused_blocks": stats.fused_blocks,
                     "shm_bytes_mapped": stats.shm_bytes_mapped}
        speedup = timings["serial"] / timings[label]
        print("  %-15s %7.3fs  speedup=%.2fx%s"
              % (label, timings[label], speedup, detail))
        from jsonio import bench_row
        benches.append(bench_row(
            label, "parallel:scaling", timings[label],
            triangles=result, speedup=round(speedup, 3), **extra))
    steal_db = scaling_db("steal-4w", scale)
    static_db = scaling_db("static-4w", scale)
    steal_db.query(TRIANGLE_COUNT)
    static_db.query(TRIANGLE_COUNT)
    balanced = steal_db.last_stats.busy_ratio() \
        < static_db.last_stats.busy_ratio()
    faster = timings["steal-4w"] < timings["static-4w"]
    print("steal vs static: %.2fx wall, busy ratio %.2f vs %.2f"
          % (timings["static-4w"] / timings["steal-4w"],
             steal_db.last_stats.busy_ratio(),
             static_db.last_stats.busy_ratio()))
    print("fused+shared vs per-tuple steal: %.2fx wall"
          % (timings["steal-4w"] / timings["fused-shared-4w"]))
    if args.json:
        from jsonio import write_results
        write_results(args.json, "parallel", benches)
        print("wrote %d rows to %s" % (len(benches), args.json))
    failed = []
    if not (balanced and faster):
        failed.append("work stealing did not beat static partitioning")
    if timings["fused-shared-4w"] * 2.0 > timings["steal-4w"]:
        failed.append("fused+shared did not hit the 2x acceptance "
                      "floor over per-tuple steal")
    if failed:
        for failure in failed:
            print("FAIL: %s" % failure)
        return 1
    print("OK: stealing beats static; fused+shared beats per-tuple "
          "by 2x+")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
