"""Incremental view maintenance: delta refresh vs full recomputation.

The versioned-mutable storage refactor lets ``Database.append`` feed a
materialized view through the semi-naive delta route
(:mod:`repro.engine.incremental`): the new tuples are substituted into
the view rule one atom position at a time against the full relation,
so refresh cost scales with the *change*, not the database.  This
module prices that claim on the canonical worst case for recomputation
— a triangle-count view, whose full evaluation is a three-way self-join
over the whole edge set — at 0.1%, 1%, and 10% mutation rates.

Rows per rate (identical mutation batches, bit-identical results):

``delta``
    Live database, ``incremental_views=True`` (the default): append the
    batch, read the view; the refresh runs 2^3 - 1 signed delta terms
    over the batch-sized Δ relation.
``rebuild``
    Identical database with ``incremental_views=False``: the same
    append, but the view refreshes by re-running its defining program
    from scratch — the pre-refactor cost model.

Acceptance: ``delta`` beats ``rebuild`` by >= 5x at the 0.1% rate
(the floor the issue sets); the gap shrinks as the rate grows, since
the inclusion–exclusion terms approach full-join size.

Both rows pin ``execution_mode="interpreted"``, the engine the floor
was stated on: there a refresh is join work, which is what the delta
route shrinks.  On the default engine's block kernels the full
triangle join is ~10x cheaper and a delta refresh is mostly fixed
per-rule cost (seven small rule executions), so both routes are
faster in absolute terms but the ratio is ~2x at smoke scale (4.4x
at full scale) — recorded in ``docs/updates.md``, not gated here.

Run standalone::

    python benchmarks/bench_incremental.py --smoke
"""

import argparse
import time

import numpy as np
import pytest

from repro import Database

#: Materialized triangle-count view: delta-capable (single rule,
#: COUNT(*)), three Δ positions -> 7 signed terms per refresh.
VIEW = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
        "w=<<COUNT(*)>>.")

#: Mutation rates under test (fraction of the base edge count).
RATES = (0.001, 0.01, 0.10)

#: Acceptance floor: delta vs rebuild at the smallest rate.
FLOOR = 5.0

#: (nodes, edges) for the base graph.
FULL_SCALE = (600, 24000)
SMOKE_SCALE = (300, 7000)

_GRAPHS = {}


def base_graph(scale=FULL_SCALE, seed=11):
    """Deduplicated random directed edge list as an (n, 2) array."""
    if scale not in _GRAPHS:
        nodes, edges = scale
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, nodes, size=(edges * 2, 2),
                           dtype=np.int64)
        raw = raw[raw[:, 0] != raw[:, 1]]
        dedup = np.unique(raw, axis=0)
        _GRAPHS[scale] = dedup[:edges].astype(np.uint32)
    return _GRAPHS[scale]


def mutation_batches(scale, rate, rounds, seed=23):
    """Fresh random edge batches of ``rate * |E|`` rows per round."""
    nodes, edges = scale
    size = max(1, int(edges * rate))
    rng = np.random.default_rng(seed + int(rate * 10000))
    batches = []
    for _ in range(rounds):
        batch = rng.integers(0, nodes, size=(size, 2), dtype=np.int64)
        batch = batch[batch[:, 0] != batch[:, 1]]
        batches.append([tuple(int(v) for v in row) for row in batch])
    return batches


def view_db(scale=FULL_SCALE, incremental=True):
    """Fresh database with the triangle view materialized and warm."""
    db = Database(incremental_views=incremental,
                  execution_mode="interpreted")
    db.add_relation("Edge", [tuple(int(v) for v in row)
                             for row in base_graph(scale)])
    db.materialize("T", VIEW)
    return db


def refresh_after(db, batch):
    """Append one batch and force the refresh; return the view value."""
    db.append("Edge", batch)
    return db.relation("T").scalar_value


def measure(scale, rate, rounds):
    """Best-of-``rounds`` (delta_seconds, rebuild_seconds, values)."""
    delta_db = view_db(scale, incremental=True)
    rebuild_db = view_db(scale, incremental=False)
    batches = mutation_batches(scale, rate, rounds)
    delta_time = rebuild_time = float("inf")
    values = []
    for batch in batches:
        start = time.perf_counter()
        delta_value = refresh_after(delta_db, batch)
        delta_time = min(delta_time, time.perf_counter() - start)
        start = time.perf_counter()
        rebuild_value = refresh_after(rebuild_db, batch)
        rebuild_time = min(rebuild_time, time.perf_counter() - start)
        values.append((delta_value, rebuild_value))
    return delta_time, rebuild_time, values


# -- timed rows ---------------------------------------------------------------


@pytest.mark.parametrize("rate", RATES, ids=["0.1pct", "1pct", "10pct"])
@pytest.mark.parametrize("label", ["delta", "rebuild"])
def test_view_refresh(benchmark, label, rate):
    from conftest import run_or_timeout
    benchmark.group = "incremental:triangle-view"
    db = view_db(FULL_SCALE, incremental=label == "delta")
    batches = iter(mutation_batches(FULL_SCALE, rate, rounds=64))
    result = run_or_timeout(
        benchmark, lambda: refresh_after(db, next(batches)),
        prewarm=False)
    benchmark.extra_info["rate"] = rate
    benchmark.extra_info["result"] = result


# -- shape assertions ---------------------------------------------------------


def test_shape_delta_matches_rebuild_and_scratch():
    """Acceptance: the delta route, the full-recompute route, and a
    from-scratch database agree at every rate."""
    for rate in RATES:
        delta_db = view_db(SMOKE_SCALE, incremental=True)
        rebuild_db = view_db(SMOKE_SCALE, incremental=False)
        tuples = [tuple(int(v) for v in row)
                  for row in base_graph(SMOKE_SCALE)]
        for batch in mutation_batches(SMOKE_SCALE, rate, rounds=2):
            tuples += batch
            assert refresh_after(delta_db, batch) \
                == refresh_after(rebuild_db, batch)
        scratch = Database()
        scratch.add_relation("Edge", tuples)
        scratch.query(VIEW)
        assert delta_db.relation("T").scalar_value \
            == scratch.relation("T").scalar_value
        assert delta_db.views["T"].delta_refreshes >= 1


def test_shape_rebuild_row_never_takes_delta_route():
    db = view_db(SMOKE_SCALE, incremental=False)
    for batch in mutation_batches(SMOKE_SCALE, 0.01, rounds=2):
        refresh_after(db, batch)
    view = db.views["T"]
    assert view.refreshes >= 2 and view.delta_refreshes == 0


# -- standalone smoke / acceptance gate ---------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="incremental view maintenance benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller graph, a few seconds end to end")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--json", metavar="PATH",
                        help="merge pytest-benchmark-shaped rows into "
                             "PATH (see benchmarks/report.py)")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    print("base graph: %d nodes, %d edges" % scale)
    benches = []
    failures = []
    speedups = {}
    for rate in RATES:
        delta_time, rebuild_time, values = measure(scale, rate,
                                                   args.rounds)
        if any(d != r for d, r in values):
            failures.append("rate %.3f: delta and rebuild disagree: %r"
                            % (rate, values))
        speedup = rebuild_time / delta_time
        speedups[rate] = speedup
        print("  rate %5.1f%%  delta %8.5fs  rebuild %8.5fs  "
              "speedup %6.2fx"
              % (rate * 100, delta_time, rebuild_time, speedup))
        from jsonio import bench_row
        group = "incremental:triangle-view"
        benches.append(bench_row("delta-%.1fpct" % (rate * 100), group,
                                 delta_time, rate=rate,
                                 result=values[-1][0],
                                 speedup=round(speedup, 3)))
        benches.append(bench_row("rebuild-%.1fpct" % (rate * 100),
                                 group, rebuild_time, rate=rate,
                                 result=values[-1][1], speedup=1.0))
    # The floor holds at both scales because the delta route's fixed
    # per-refresh costs are amortized away: the banded plan memo skips
    # the GHD search per term, and the trie cache patches the mutated
    # dependency's trie surgically instead of rebuilding node-by-node.
    if speedups[RATES[0]] < FLOOR:
        failures.append(
            "delta update %.2fx over full rebuild at %.1f%% rate "
            "(acceptance floor %.1fx)"
            % (speedups[RATES[0]], RATES[0] * 100, FLOOR))
    if args.json:
        from jsonio import write_results
        write_results(args.json, "incremental", benches)
        print("wrote %d rows to %s" % (len(benches), args.json))
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: delta == rebuild at every rate; %.2fx at the %.1f%% "
          "rate (floor %.1fx)"
          % (speedups[RATES[0]], RATES[0] * 100, FLOOR))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
