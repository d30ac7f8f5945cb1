"""Default engine vs the interpreter on a repeated pattern query.

EmptyHeaded compiles every query and amortizes the cost by caching the
compiled plan (§3.3).  Three rows over one small graph: ``interpreted``
(the generic bag evaluator, re-planned every run), ``uncached`` (the
default engine with its plan cache cleared between runs) and ``fused``
(the default engine as shipped: plan-cache hits, every bag a numpy
block kernel).  The rows compute identical counts, and the counters
show what a cache hit skips.  That the default engine is at least 2x
faster is a clock reading, gated in ``benchmarks/floors.py``.
"""

import pytest

from repro import Database
from repro.graphs import FOUR_CLIQUE_COUNT, TRIANGLE_COUNT, uniform_graph

ROWS = {
    "interpreted": {"execution_mode": "interpreted"},
    "uncached": {"execution_mode": "compiled"},
    "fused": {"execution_mode": "compiled"},
}

QUERIES = (TRIANGLE_COUNT, FOUR_CLIQUE_COUNT)


@pytest.fixture(scope="module")
def codegen_db():
    """The warmed Database of a row, on uniform(120 nodes, 480 edges),
    shared by this module's tests."""
    edges = [tuple(e) for e in uniform_graph(120, 480, seed=13)]
    databases = {}

    def row(label):
        if label not in databases:
            db = Database(**ROWS[label])
            db.load_graph("Edge", edges, prune=True)
            db.query(TRIANGLE_COUNT)  # build tries
            databases[label] = db
        return databases[label]
    return row


def test_modes_agree_bit_for_bit(codegen_db):
    for query in QUERIES:
        results = {label: codegen_db(label).query(query).scalar
                   for label in ROWS}
        assert len(set(results.values())) == 1, results


def test_cached_run_skips_parse_ghd_codegen(codegen_db):
    """A cache-hit repetition performs zero parses, zero GHD builds,
    and zero bag lowerings — only kernel calls."""
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


def test_cache_clearing_forces_recompiles(codegen_db):
    """The ``uncached`` row really does pay the pipeline every run."""
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


def test_fused_runs_block_kernels_bit_for_bit(codegen_db):
    """The default row answers every bag through a block kernel (no
    interpreter fallback) with results identical to the
    interpreter's."""
    fused = codegen_db("fused")
    interpreted = codegen_db("interpreted")
    for query in QUERIES:
        assert fused.query(query).scalar \
            == interpreted.query(query).scalar
    stats = fused.last_stats
    assert stats.fused_blocks == stats.compiled_bag_calls >= 1
    assert stats.fused_fallbacks == 0


def test_both_engines_charge_the_op_model(codegen_db):
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
