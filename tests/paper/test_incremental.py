"""Incremental view maintenance: delta refresh vs full recomputation.

A triangle-count view, whose full evaluation is a three-way self-join
over the whole edge set, is refreshed after random edge batches at
0.1%, 1% and 10% mutation rates by the semi-naive delta route
(``incremental_views=True``, the default) and by re-running its
program (``incremental_views=False``).  Both routes and a from-scratch
database agree.  That the delta route is 5x faster at the 0.1% rate is
a clock reading, gated in ``benchmarks/floors.py``.
"""

import numpy as np

from repro import Database

VIEW = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
        "w=<<COUNT(*)>>.")

RATES = (0.001, 0.01, 0.10)

#: (nodes, edges) of the base graph.
SCALE = (300, 7000)


def base_graph(seed=11):
    """Deduplicated random directed edge list as an (n, 2) array."""
    nodes, edges = SCALE
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, nodes, size=(edges * 2, 2), dtype=np.int64)
    raw = raw[raw[:, 0] != raw[:, 1]]
    return np.unique(raw, axis=0)[:edges].astype(np.uint32)


def mutation_batches(rate, rounds, seed=23):
    """Fresh random edge batches of ``rate * |E|`` rows per round."""
    nodes, edges = SCALE
    size = max(1, int(edges * rate))
    rng = np.random.default_rng(seed + int(rate * 10000))
    batches = []
    for _ in range(rounds):
        batch = rng.integers(0, nodes, size=(size, 2), dtype=np.int64)
        batch = batch[batch[:, 0] != batch[:, 1]]
        batches.append([tuple(int(v) for v in row) for row in batch])
    return batches


def view_db(incremental):
    """Fresh database with the triangle view materialized."""
    db = Database(incremental_views=incremental,
                  execution_mode="interpreted")
    db.add_relation("Edge", [tuple(int(v) for v in row)
                             for row in base_graph()])
    db.materialize("T", VIEW)
    return db


def refresh_after(db, batch):
    """Append one batch and force the refresh; return the view value."""
    db.append("Edge", batch)
    return db.relation("T").scalar_value


def test_delta_matches_rebuild_and_scratch():
    for rate in RATES:
        delta_db = view_db(incremental=True)
        rebuild_db = view_db(incremental=False)
        tuples = [tuple(int(v) for v in row) for row in base_graph()]
        for batch in mutation_batches(rate, rounds=2):
            tuples += batch
            assert refresh_after(delta_db, batch) \
                == refresh_after(rebuild_db, batch)
        scratch = Database()
        scratch.add_relation("Edge", tuples)
        scratch.query(VIEW)
        assert delta_db.relation("T").scalar_value \
            == scratch.relation("T").scalar_value
        assert delta_db.views["T"].delta_refreshes >= 1


def test_rebuild_row_never_takes_delta_route():
    db = view_db(incremental=False)
    for batch in mutation_batches(0.01, rounds=2):
        refresh_after(db, batch)
    view = db.views["T"]
    assert view.refreshes >= 2 and view.delta_refreshes == 0
