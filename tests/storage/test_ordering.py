"""Unit tests for node orderings (paper Appendix A.1.1)."""

import numpy as np
import pytest

from repro.storage import ORDERINGS, order_nodes

STAR_PLUS_TAIL = np.array([[0, 1], [0, 2], [0, 3], [0, 4], [4, 5]])


class TestSchemes:
    @pytest.mark.parametrize("scheme", ORDERINGS)
    def test_every_scheme_returns_a_bijection(self, scheme):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme=scheme)
        assert sorted(perm.tolist()) == list(range(6))
        assert perm.dtype == np.uint32

    def test_degree_puts_hub_first(self):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme="degree")
        assert perm[0] == 0  # node 0 has degree 4

    def test_rev_degree_puts_hub_last(self):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme="rev_degree")
        assert perm[0] == 5

    def test_bfs_labels_neighbors_contiguously(self):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme="bfs")
        # BFS from the hub: hub gets 0, its neighbors get 1..4.
        assert perm[0] == 0
        assert sorted(perm[[1, 2, 3, 4]].tolist()) == [1, 2, 3, 4]
        assert perm[5] == 5

    def test_bfs_covers_disconnected_components(self):
        edges = np.array([[0, 1], [2, 3]])
        perm = order_nodes(edges, 5, scheme="bfs")  # node 4 isolated
        assert sorted(perm.tolist()) == list(range(5))

    def test_hybrid_degree_primary_bfs_tiebreak(self):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme="hybrid")
        assert perm[0] == 0          # highest degree first
        assert perm[4] == 1          # degree-2 node next
        # equal-degree leaves keep their BFS relative order
        leaf_labels = perm[[1, 2, 3]].tolist()
        assert leaf_labels == sorted(leaf_labels)

    def test_random_is_seeded(self):
        a = order_nodes(STAR_PLUS_TAIL, 6, scheme="random", seed=1)
        b = order_nodes(STAR_PLUS_TAIL, 6, scheme="random", seed=1)
        c = order_nodes(STAR_PLUS_TAIL, 6, scheme="random", seed=2)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_shingle_groups_similar_neighborhoods(self):
        # nodes 1..4 share the identical neighborhood {0}: shingle must
        # place them contiguously.
        perm = order_nodes(STAR_PLUS_TAIL[:4], 5, scheme="shingle")
        labels = sorted(perm[[1, 2, 3, 4]].tolist())
        assert labels == list(range(labels[0], labels[0] + 4))

    def test_strong_runs_numbers_hub_neighbors_contiguously(self):
        perm = order_nodes(STAR_PLUS_TAIL, 6, scheme="strong_runs")
        assert perm[0] == 0
        assert sorted(perm[[1, 2, 3, 4]].tolist()) == [1, 2, 3, 4]

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            order_nodes(STAR_PLUS_TAIL, 6, scheme="zorder")

    def test_empty_edges(self):
        perm = order_nodes(np.empty((0, 2)), 3, scheme="degree")
        assert perm.tolist() == [0, 1, 2]

    def test_triangle_count_invariant_under_ordering(self):
        """Relabeling must never change the set of triangles."""
        from tests.conftest import (brute_force_triangles,
                                    random_undirected_edges)
        edges = random_undirected_edges(25, 80, seed=5)
        base = brute_force_triangles(edges)
        arr = np.asarray(edges)
        for scheme in ORDERINGS:
            perm = order_nodes(arr, 25, scheme=scheme)
            relabeled = [tuple(e) for e in perm[arr].tolist()]
            assert brute_force_triangles(relabeled) == base, scheme
