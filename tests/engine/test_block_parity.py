"""Whole-query parity of the block kernels at every block size.

The default engine cuts each bag's level-0 candidates into blocks of
``repro.engine.fused.BLOCK_ROWS`` rows.  Whatever the cut, a query
must answer exactly what the interpreter answers: the same scalar, the
same keyed values, and a materialized head's rows in the same order,
on a uniform graph and on a power-law one whose hubs straddle block
boundaries.  The kernel-level tests in ``test_fused_kernels.py`` pin
one bag at a time; these run the full pipeline (GHD plans of several
bags, projections, aggregates over annotations) end to end.
"""

import numpy as np
import pytest

from repro import Database
from repro.engine import fused
from repro.graphs import chung_lu_graph, uniform_graph

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
FOUR_CLIQUE = ("K(;w:long) :- Edge(x,y),Edge(x,z),Edge(x,u),"
               "Edge(y,z),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.")
TRIANGLE_LIST = "Q(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."
PER_VERTEX = ("D(x;c:long) :- Edge(x,y),Edge(x,z),Edge(y,z); "
              "c=<<COUNT(*)>>.")
MULTI_BAG = ("B(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
             "Edge(x,p),Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.")

UNIFORM = [tuple(e) for e in uniform_graph(120, 700, seed=11)]
POWER_LAW = [tuple(e) for e in chung_lu_graph(200, 1400, exponent=1.7,
                                              seed=7)]

#: Kernel constants ``(BLOCK_ROWS, PROBE_CROSSOVER)``: block sizes from
#: one row per block (every candidate its own block) up to blocks larger
#: than any level of these graphs, and the fuzzer's ``small-blocks``
#: shape — five-row blocks with a sweep at any skew.
KERNEL_CONSTANTS = [(1, None), (2, None), (7, None), (64, None),
                    (5, 1.0)]


def make_db(edges, mode):
    db = Database(execution_mode=mode)
    db.load_graph("Edge", edges, prune=True)
    return db


def annotated_db(edges, mode):
    pairs = [(int(a), int(b)) for a, b in edges[:400]]
    weights = [float((i * 3) % 17 + 1) for i in range(len(pairs))]
    db = make_db([], mode)
    db.add_relation("W", pairs, annotations=weights, combine="max")
    return db


@pytest.fixture(scope="module", params=["uniform", "powerlaw"])
def edge_set(request):
    return UNIFORM if request.param == "uniform" else POWER_LAW


@pytest.fixture(scope="module")
def oracle(edge_set):
    return make_db(edge_set, "interpreted")


@pytest.fixture(scope="module", params=KERNEL_CONSTANTS,
                ids=["rows%d" % rows + ("" if crossover is None
                                        else "-sweep%g" % crossover)
                     for rows, crossover in KERNEL_CONSTANTS])
def blocked_db(request, edge_set):
    """A default-engine database; its kernel runs with the
    ``request.param`` constants while the fixture is live (``None``:
    the built-in crossover)."""
    rows, crossover = request.param
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fused, "BLOCK_ROWS", rows)
        if crossover is not None:
            patch.setattr(fused, "PROBE_CROSSOVER", crossover)
        yield make_db(edge_set, "compiled")


class TestParity:
    """Every block size answers what the interpreter answers."""

    def test_triangle_count(self, oracle, blocked_db):
        expected = oracle.query(TRIANGLES).scalar
        assert expected > 0
        assert blocked_db.query(TRIANGLES).scalar == expected

    def test_four_clique(self, oracle, blocked_db):
        assert blocked_db.query(FOUR_CLIQUE).scalar \
            == oracle.query(FOUR_CLIQUE).scalar

    def test_materializing_head_row_order(self, oracle, blocked_db):
        """Blocks concatenate in candidate order: the rows come out in
        the interpreter's order, not just as the same set."""
        expected = oracle.query(TRIANGLE_LIST)
        got = blocked_db.query(TRIANGLE_LIST)
        assert got.count == expected.count > 0
        assert np.array_equal(got.relation.data, expected.relation.data)

    def test_keyed_aggregate_head(self, oracle, blocked_db):
        assert blocked_db.query(PER_VERTEX).to_dict() \
            == oracle.query(PER_VERTEX).to_dict()

    def test_multi_bag_plan(self, oracle, blocked_db):
        assert blocked_db.query(MULTI_BAG).scalar \
            == oracle.query(MULTI_BAG).scalar

    def test_every_bag_ran_on_the_kernels(self, blocked_db):
        """Parity is not bought by falling back to the interpreter."""
        blocked_db.query(MULTI_BAG)
        stats = blocked_db.last_stats
        assert stats.fused_blocks == stats.compiled_bag_calls >= 1

    @pytest.mark.parametrize("op", ["SUM", "MIN", "MAX"])
    def test_annotated_aggregates(self, op, edge_set, blocked_db):
        query = "S(;w:float) :- W(a,b); w=<<%s(*)>>." % op
        expected = annotated_db(edge_set, "interpreted").query(query)
        got = annotated_db(edge_set, "compiled").query(query)
        assert got.scalar == expected.scalar


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
class TestValueTypes:
    """Scalars come back as the interpreter's Python type, never as
    numpy scalars, in either engine."""

    def test_count_type_matches_the_other_engine(self, mode):
        other = "interpreted" if mode == "compiled" else "compiled"
        got = make_db(POWER_LAW, mode).query(TRIANGLES).scalar
        expected = make_db(POWER_LAW, other).query(TRIANGLES).scalar
        assert got == expected
        assert type(got) is type(expected)
        assert type(got) in (int, float)

    def test_numpy_scalars_unwrapped(self, mode):
        got = make_db(UNIFORM, mode).query(FOUR_CLIQUE).scalar
        assert not isinstance(got, np.generic)

    @pytest.mark.parametrize("op", ["MIN", "MAX"])
    def test_min_max_preserve_value(self, mode, op):
        query = "S(;w:float) :- W(a,b); w=<<%s(*)>>." % op
        got = annotated_db(POWER_LAW, mode).query(query).scalar
        assert isinstance(got, float)
        weights = [float((i * 3) % 17 + 1) for i in range(400)]
        assert got == (min if op == "MIN" else max)(weights)
