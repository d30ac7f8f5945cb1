"""Unit tests for the rule executor: normalization, expressions, plans."""

import numpy as np
import pytest

from repro import Database
from repro.engine import EngineConfig, TrieCache
from repro.engine.executor import eval_expression
from repro.engine.oracle import executor_for
from repro.lir.build import normalize_atom
from repro.errors import (ExecutionError, PlanError, UnknownRelationError)
from repro.query import parse_rule
from repro.query.ast import Agg, BinOp, Num, Ref
from repro.storage import Relation


def catalog_with_edges(rows, annotations=None):
    return {"E": Relation("E", np.asarray(rows, dtype=np.uint32),
                          annotations)}


class TestNormalization:
    def test_plain_atom_passthrough(self):
        catalog = catalog_with_edges([[0, 1], [1, 2]])
        atom = parse_rule("Q(x,y) :- E(x,y).").body[0]
        normalized = normalize_atom(atom, catalog)
        assert normalized.relation is catalog["E"]
        assert normalized.variables == ("x", "y")
        assert not normalized.is_selection

    def test_constant_filters_rows(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        atom = parse_rule("Q(y) :- E(0,y).").body[0]
        normalized = normalize_atom(atom, catalog)
        assert normalized.is_selection
        assert normalized.variables == ("y",)
        assert normalized.relation.data.ravel().tolist() == [1, 2]

    def test_missing_constant_empties_relation(self):
        catalog = {"E": Relation.from_tuples("E", [("a", "b")])}
        atom = parse_rule("Q(y) :- E('zzz',y).").body[0]
        normalized = normalize_atom(atom, catalog)
        assert normalized.relation.cardinality == 0

    def test_repeated_variable_becomes_equality_filter(self):
        catalog = catalog_with_edges([[0, 0], [0, 1], [2, 2]])
        atom = parse_rule("Q(x) :- E(x,x).").body[0]
        normalized = normalize_atom(atom, catalog)
        assert normalized.variables == ("x",)
        assert normalized.relation.data.ravel().tolist() == [0, 2]

    def test_unknown_relation(self):
        atom = parse_rule("Q(x) :- Nope(x,x).").body[0]
        with pytest.raises(UnknownRelationError):
            normalize_atom(atom, {})

    def test_arity_mismatch(self):
        catalog = catalog_with_edges([[0, 1]])
        atom = parse_rule("Q(x) :- E(x,y,z).").body[0]
        with pytest.raises(ExecutionError):
            normalize_atom(atom, catalog)

    def test_annotations_filtered_alongside(self):
        catalog = catalog_with_edges([[0, 1], [1, 2]],
                                     annotations=[5.0, 9.0])
        atom = parse_rule("Q(y) :- E(1,y).").body[0]
        normalized = normalize_atom(atom, catalog)
        assert normalized.relation.annotations.tolist() == [9.0]


class TestExpressionEvaluation:
    def test_affine_over_aggregate(self):
        expr = BinOp("+", Num(0.15), BinOp("*", Num(0.85),
                                           Agg("SUM", "z")))
        assert eval_expression(expr, 2.0, {}) == pytest.approx(1.85)

    def test_vectorized_over_arrays(self):
        expr = BinOp("*", Num(2.0), Agg("SUM", "z"))
        out = eval_expression(expr, np.array([1.0, 2.0]), {})
        assert out.tolist() == [2.0, 4.0]

    def test_scalar_reference(self):
        assert eval_expression(BinOp("/", Num(1.0), Ref("N")),
                               None, {"N": 4.0}) == 0.25

    def test_unknown_reference(self):
        with pytest.raises(ExecutionError):
            eval_expression(Ref("M"), None, {})

    def test_aggregate_without_context(self):
        with pytest.raises(ExecutionError):
            eval_expression(Agg("SUM", "z"), None, {})

    def test_subtraction_and_division(self):
        expr = BinOp("-", Num(10.0), BinOp("/", Num(4.0), Num(2.0)))
        assert eval_expression(expr, None, {}) == 8.0


class TestExecutorPaths:
    def test_head_var_unbound_rejected(self):
        executor = executor_for(catalog_with_edges([[0, 1]]),
                                EngineConfig())
        with pytest.raises(PlanError):
            executor.execute(parse_rule("Q(q) :- E(x,y)."))

    def test_multiple_aggregates_rejected(self):
        executor = executor_for(catalog_with_edges([[0, 1]]),
                                EngineConfig())
        rule = parse_rule(
            "Q(;w:int) :- E(x,y); w=<<SUM(x)>>+<<SUM(y)>>.")
        with pytest.raises(PlanError):
            executor.execute(rule)

    def test_count_distinct_scalar(self):
        executor = executor_for(catalog_with_edges(
            [[0, 1], [0, 2], [1, 2]]), EngineConfig())
        rule = parse_rule("N(;w:int) :- E(x,y); w=<<COUNT(x)>>.")
        assert executor.execute(rule).scalar_value == 2.0  # x in {0, 1}

    def test_count_distinct_per_key(self):
        executor = executor_for(catalog_with_edges(
            [[0, 1], [0, 2], [1, 2]]), EngineConfig())
        rule = parse_rule("D(x;c:int) :- E(x,y); c=<<COUNT(y)>>.")
        out = executor.execute(rule)
        got = {row[0]: ann for row, ann in zip(out.data.tolist(),
                                               out.annotations)}
        assert got == {0: 2.0, 1: 1.0}

    def test_count_distinct_of_head_var_rejected(self):
        executor = executor_for(catalog_with_edges([[0, 1]]),
                                EngineConfig())
        rule = parse_rule("D(x;c:int) :- E(x,y); c=<<COUNT(x)>>.")
        with pytest.raises(PlanError):
            executor.execute(rule)

    def test_guard_atom_empties_result(self):
        catalog = catalog_with_edges([[0, 1]])
        catalog["Flag"] = Relation("Flag", np.empty((0, 1),
                                                    dtype=np.uint32))
        executor = executor_for(catalog, EngineConfig())
        rule = parse_rule("Q(x,y) :- E(x,y),Flag(7).")
        assert executor.execute(rule).cardinality == 0

    def test_constant_expression_annotation(self):
        executor = executor_for(catalog_with_edges([[0, 1], [0, 2]]),
                                EngineConfig())
        rule = parse_rule("B(y;d:int) :- E(x,y); d=1.")
        out = executor.execute(rule)
        assert out.annotations.tolist() == [1.0, 1.0]

    def test_last_plan_recorded(self):
        executor = executor_for(catalog_with_edges([[0, 1]]),
                                EngineConfig())
        executor.execute(parse_rule("Q(x,y) :- E(x,y)."))
        assert "GHD" in executor.last_plan.describe()


class TestTrieCache:
    def test_caches_by_relation_identity(self):
        cache = TrieCache()
        relation = Relation("E", np.asarray([[0, 1]], dtype=np.uint32))
        a = cache.get(relation, (0, 1), "set")
        b = cache.get(relation, (0, 1), "set")
        c = cache.get(relation, (1, 0), "set")
        assert a is b
        assert a is not c
        assert len(cache) == 2

    def test_invalidate(self):
        cache = TrieCache()
        relation = Relation("E", np.asarray([[0, 1]], dtype=np.uint32))
        cache.get(relation, (0, 1), "set")
        cache.invalidate(relation)
        assert len(cache) == 0

    def test_replacement_gets_fresh_trie(self):
        cache = TrieCache()
        first = Relation("E", np.asarray([[0, 1]], dtype=np.uint32))
        second = Relation("E", np.asarray([[2, 3]], dtype=np.uint32))
        trie_first = cache.get(first, (0, 1), "set")
        trie_second = cache.get(second, (0, 1), "set")
        assert trie_first is not trie_second
        assert list(trie_second.tuples()) == [(2, 3)]


class TestDerivedRelationTries:
    """Selection and projection slices are new relation objects per
    planning; the trie cache must know them by what they were cut from
    and let them go with the plan that cut them."""

    @staticmethod
    def two_hop(node):
        return ("Hop(;w:long) :- Edge(%d,y),Edge(y,z); w=<<COUNT(*)>>."
                % node)

    def db(self, **overrides):
        from repro.graphs import uniform_graph
        db = Database(ordering="identity", **overrides)
        db.load_graph("Edge", [tuple(e) for e
                               in uniform_graph(320, 1500, seed=4)])
        return db

    def test_distinct_selections_do_not_accumulate(self):
        """The daemon's miss traffic: 300 distinct selections on one
        database (more than the plan cache holds) leave at most one
        selection trie per cached plan."""
        db = self.db(execution_mode="compiled")
        answers = {node: db.query(self.two_hop(node)).scalar
                   for node in range(300)}
        cache = db._trie_cache
        cached_rules = db._plan_cache.sizes()["rules"]
        assert cached_rules < 300
        assert len(cache._tries) <= cached_rules + 2
        assert all(key[0][1].startswith("Edge{") for key in cache._tries
                   if isinstance(key[0], tuple))
        # evicted and still-cached selections alike answer as before
        for node in (0, 150, 299):
            assert db.query(self.two_hop(node)).scalar == answers[node]

    def test_repeated_selection_hits(self):
        db = self.db(execution_mode="compiled")
        db.query(self.two_hop(7))
        db._plan_cache.clear()   # forget the plan, not the relation...
        assert not any(isinstance(key[0], tuple)
                       for key in db._trie_cache._tries)
        # ...whose trie went with it; two plans alive share one trie
        db.query(self.two_hop(7))
        misses = db._trie_cache.misses
        db.query(self.two_hop(7).replace("Hop", "SameHop"))
        assert db._trie_cache.misses == misses
        assert db.last_stats.trie_cache_hits >= 1

    def test_interpreted_runs_leave_no_selection_trie(self):
        db = self.db(execution_mode="interpreted")
        for node in range(20):
            db.query(self.two_hop(node))
        assert len(db._trie_cache._tries) <= 2

    def test_mutated_source_misses(self):
        db = self.db(execution_mode="compiled")
        before = db.query(self.two_hop(3)).scalar
        absent = next(node for node in range(4, 320)
                      if (3, node) not in set(map(
                          tuple, db.catalog["Edge"].data.tolist())))
        db.append("Edge", [(3, absent), (absent, 3)])
        after = db.query(self.two_hop(3)).scalar
        fresh = self.db(execution_mode="interpreted")
        fresh.append("Edge", [(3, absent), (absent, 3)])
        assert after == fresh.query(self.two_hop(3)).scalar != before
        # the selection's stale trie was replaced, not kept beside
        assert sum(isinstance(key[0], tuple)
                   for key in db._trie_cache._tries) == 1
