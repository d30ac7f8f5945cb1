"""Property tests for the optimizer: semantics preservation, plan-cache
canonicalization, and cross-rule CSE correctness."""

import pytest

from repro import Database
from repro.graphs import uniform_graph

#: Queries exercising every rewrite: pruning (existential tails),
#: folding (constant subtrees), selections, guards, aggregates, and a
#: shared-bag program for CSE.
CORPUS = [
    "T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).",
    "P(x,y) :- Edge(x,y),Edge(y,z),Edge(z,w).",
    "S(y) :- Edge(0,y).",
    "N(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.",
    "D(x;c:long) :- Edge(x,y); c=<<COUNT(y)>>.",
    "C(x;v:float) :- Edge(x,y); v=0.3*0.5.",
    "G(x,y) :- Edge(x,y),Edge(0,1).",
    ("A(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z). "
     "B(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."),
]

EDGES = [tuple(e) for e in uniform_graph(60, 200, seed=11)]


def make_db(**overrides):
    db = Database(**overrides)
    db.load_graph("Edge", EDGES, prune=False)
    return db


def snapshot(result):
    """Comparable value for either scalar or relational output."""
    if result.relation.is_scalar():
        return ("scalar", result.scalar)
    if result.relation.annotations is not None:
        return ("annotated", sorted(
            (row, ann) for row, ann in zip(result.tuples(),
                                           result.annotations.tolist())))
    return ("set", sorted(result.tuples()))


@pytest.mark.parametrize("text", CORPUS)
def test_rewrites_preserve_semantics(text):
    """Optimized output == output with every rewrite disabled."""
    baseline = make_db(prune_attributes=False, fold_constants=False,
                       eliminate_redundant_bags=False)
    optimized = make_db()
    assert snapshot(optimized.query(text)) == snapshot(baseline.query(text))


@pytest.mark.parametrize("text", CORPUS)
def test_interpreted_compiled_parity(text):
    """Both execution modes run the same logical pipeline and agree."""
    interpreted = make_db(execution_mode="interpreted")
    compiled = make_db(execution_mode="compiled")
    assert snapshot(compiled.query(text)) \
        == snapshot(interpreted.query(text))


class TestPlanCacheCanonicalization:
    """The compiled plan cache keys on the canonicalized logical IR, so
    alpha-renamed queries share one entry."""

    def test_alpha_renamed_query_is_a_cache_hit(self):
        db = make_db(execution_mode="compiled")
        first = db.query("T(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")
        assert db.last_stats.plan_cache_misses == 1
        second = db.query("T(a,b,c) :- Edge(a,b),Edge(b,c),Edge(a,c).")
        assert db.last_stats.plan_cache_hits == 1
        assert db.last_stats.plan_cache_misses == 0
        assert db.last_stats.ghd_builds == 0  # no re-planning
        assert sorted(second.tuples()) == sorted(first.tuples())

    def test_different_selection_constants_do_not_collide(self):
        db = make_db(execution_mode="compiled")
        one = db.query("S(y) :- Edge(0,y).")
        two = db.query("S(y) :- Edge(1,y).")
        assert db.last_stats.plan_cache_hits == 0
        assert sorted(one.tuples()) != sorted(two.tuples())

    def test_folded_constants_share_an_entry(self):
        """Constant folding runs before the cache key is computed, so
        `0.15` and `0.3*0.5` canonicalize to the same plan."""
        db = make_db(execution_mode="compiled")
        first = db.query("C(x;v:float) :- Edge(x,y); v=0.3*0.5.")
        second = db.query("C(x;v:float) :- Edge(x,y); v=0.15.")
        assert db.last_stats.plan_cache_hits == 1
        assert snapshot(second) == snapshot(first)


class TestCrossRuleCSE:
    PROGRAM = ("A(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z). "
               "B(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).")

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_shared_bag_reused_with_identical_results(self, mode):
        db = make_db(execution_mode=mode)
        metrics = db.enable_metrics()
        db.query(self.PROGRAM)
        assert metrics.counters["cse.bag_hits"].value >= 1
        assert sorted(db.relation("A").decoded_tuples()) \
            == sorted(db.relation("B").decoded_tuples())

    def test_disabled_cse_takes_no_shortcuts(self):
        db = make_db(eliminate_redundant_bags=False)
        metrics = db.enable_metrics()
        db.query(self.PROGRAM)
        assert metrics.counters.get("cse.bag_hits") is None \
            or metrics.counters["cse.bag_hits"].value == 0

    def test_catalog_replacement_invalidates_memo(self):
        """A memo entry is only valid while its source relations are the
        live catalog objects; replacing Edge between programs must not
        serve stale bags."""
        db = make_db()
        db.query(self.PROGRAM)
        before = sorted(db.relation("A").decoded_tuples())
        small = [(0, 1), (1, 2), (0, 2)]
        db.load_graph("Edge", small, prune=False)
        db.query(self.PROGRAM)
        after = sorted(db.relation("A").decoded_tuples())
        fresh = Database()
        fresh.load_graph("Edge", small, prune=False)
        expected = sorted(fresh.query(
            "A(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).").tuples())
        assert after == expected
        assert after != before
