"""Tests for the simulated competitor engines: correctness + agreement."""

import numpy as np
import pytest

from repro import Database
from repro.baselines import (CSRGraph, HashSetGraphEngine, LogicBloxLike,
                             PairwiseEngine, ScalarGraphEngine,
                             SociaLiteLike, TunedGraphEngine,
                             dijkstra_reference)
from repro.graphs import (TRIANGLE_COUNT, highest_degree_node, pagerank,
                          symmetric_filter, undirect)
from tests.conftest import brute_force_triangles, random_undirected_edges


@pytest.fixture(scope="module")
def edges():
    return random_undirected_edges(30, 130, seed=21)


@pytest.fixture(scope="module")
def pruned(edges):
    return symmetric_filter(np.asarray(edges))


@pytest.fixture(scope="module")
def both(edges):
    return undirect(np.asarray(edges))


class TestCSRGraph:
    def test_structure(self):
        graph = CSRGraph([[0, 1], [0, 2], [2, 1]], n_nodes=3)
        assert graph.n_nodes == 3 and graph.n_edges == 3
        assert graph.neighbors(0).tolist() == [1, 2]
        assert graph.neighbors(1).tolist() == []
        assert graph.out_degrees.tolist() == [2, 0, 1]

    def test_empty(self):
        graph = CSRGraph(np.empty((0, 2)), n_nodes=2)
        assert graph.neighbors(0).size == 0


class TestTriangleAgreement:
    def test_all_engines_match_brute_force(self, edges, pruned):
        expected = brute_force_triangles(edges)
        assert ScalarGraphEngine().triangle_count(pruned) == expected
        assert TunedGraphEngine().triangle_count(pruned) == expected
        assert HashSetGraphEngine().triangle_count(pruned) == expected
        assert PairwiseEngine().triangle_count(pruned) == expected
        assert SociaLiteLike().triangle_count(pruned) == expected
        lb = LogicBloxLike()
        lb.load_graph("Edge", edges, prune=True)
        assert lb.query(TRIANGLE_COUNT).scalar == expected

    def test_hashset_engine_min_property_cost(self, pruned):
        """PowerGraph's hash probing is O(min): its probe count must be
        bounded by the sum over edges of the smaller degree."""
        from repro.sets import OpCounter
        counter = OpCounter()
        engine = HashSetGraphEngine()
        engine.triangle_count(pruned, counter=counter)
        graph = CSRGraph(pruned)
        bound = sum(min(graph.neighbors(int(u)).size,
                        graph.neighbors(int(v)).size)
                    for u, v in pruned.tolist())
        assert counter.scalar_ops <= bound * engine.HASH_PROBE_COST

    def test_pairwise_generic_conjunctive(self, both):
        engine = PairwiseEngine()
        engine.add("E", both)
        triangles = engine.count_conjunctive([
            ("E", ("x", "y")), ("E", ("y", "z")), ("E", ("x", "z"))])
        wedges = engine.count_conjunctive([
            ("E", ("x", "y")), ("E", ("y", "z"))])
        assert wedges >= triangles
        assert engine.count_conjunctive([]) == 0


class TestAnalyticsAgreement:
    def test_pagerank_all_engines(self, edges, both):
        db = Database()
        db.load_graph("Edge", edges, undirected=True)
        reference = pagerank(db)
        n = int(both.max()) + 1
        for engine in (ScalarGraphEngine(), TunedGraphEngine(),
                       SociaLiteLike()):
            got = engine.pagerank(both, n_nodes=n)
            assert set(got) == set(reference)
            for node in reference:
                assert got[node] == pytest.approx(reference[node],
                                                  abs=1e-9)

    def test_sssp_all_engines(self, both):
        n = int(both.max()) + 1
        source = highest_degree_node(both)
        reference = dijkstra_reference(both, source, n_nodes=n)
        for engine in (ScalarGraphEngine(), TunedGraphEngine(),
                       SociaLiteLike()):
            assert engine.sssp(both, source, n_nodes=n) == reference

    def test_logicblox_pagerank_through_queries(self, edges):
        db = Database()
        db.load_graph("Edge", edges, undirected=True)
        reference = pagerank(db)
        lb = LogicBloxLike()
        lb.load_graph("Edge", edges, undirected=True)
        from repro.graphs import pagerank_program
        got = lb.query(pagerank_program()).to_dict()
        for node in reference:
            assert got[node] == pytest.approx(reference[node], abs=1e-9)


class TestLogicBloxConfiguration:
    def test_locked_to_paper_description(self):
        lb = LogicBloxLike()
        ablation = lb.db.config.ablation
        assert not ablation.use_ghd
        assert not ablation.simd
        assert ablation.layout_level == "uint_only"
        assert ablation.adaptive_algorithms  # LFTJ min property
