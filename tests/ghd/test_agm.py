"""Unit and property tests for AGM bounds (paper §2.1, Example 2.1)."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ghd import (agm, agm_bound, cover_bound_value, fractional_cover,
                       is_feasible_cover, rho_star)

TRIANGLE = [{"x", "y"}, {"y", "z"}, {"x", "z"}]
FOUR_CLIQUE = [{"x", "y"}, {"y", "z"}, {"x", "z"}, {"x", "w"},
               {"y", "w"}, {"z", "w"}]


class TestFractionalCover:
    def test_triangle_rho_star_is_three_halves(self):
        value, weights = fractional_cover(["x", "y", "z"], TRIANGLE)
        assert value == pytest.approx(1.5)
        assert weights == pytest.approx([0.5, 0.5, 0.5])

    def test_single_edge(self):
        value, weights = fractional_cover(["x", "y"], [{"x", "y"}])
        assert value == pytest.approx(1.0)

    def test_uncoverable_vertex_is_infinite(self):
        value, _ = fractional_cover(["x", "q"], [{"x", "y"}])
        assert value == math.inf

    def test_no_vertices_costs_nothing(self):
        value, weights = fractional_cover([], TRIANGLE)
        assert value == 0.0

    def test_four_clique_rho_star_is_two(self):
        edges = [{"x", "y"}, {"y", "z"}, {"x", "z"}, {"x", "w"},
                 {"y", "w"}, {"z", "w"}]
        assert rho_star(["x", "y", "z", "w"], edges) == pytest.approx(2.0)

    def test_path_query_integral_cover(self):
        edges = [{"a", "b"}, {"b", "c"}, {"c", "d"}]
        assert rho_star(["a", "b", "c", "d"], edges) == pytest.approx(2.0)


class TestSolverClosedForms:
    """The in-tree simplex against covers known in closed form."""

    def test_five_cycle_is_five_halves(self):
        cycle = [{i, (i + 1) % 5} for i in range(5)]
        value, weights = fractional_cover(range(5), cycle)
        assert value == pytest.approx(2.5, abs=1e-12)
        assert weights == pytest.approx([0.5] * 5)

    def test_star_needs_every_leaf_edge(self):
        star = [{"c", "l%d" % i} for i in range(4)]
        vertices = ["c"] + ["l%d" % i for i in range(4)]
        value, weights = fractional_cover(vertices, star)
        assert value == pytest.approx(4.0, abs=1e-12)
        assert weights == pytest.approx([1.0] * 4)

    def test_lopsided_triangle_avoids_the_huge_edge(self):
        logs = [math.log(100), math.log(100), math.log(10 ** 9)]
        value, weights = fractional_cover("xyz", TRIANGLE, logs)
        assert value == pytest.approx(2 * math.log(100), rel=1e-12)
        assert weights == pytest.approx([1.0, 1.0, 0.0])

    def test_zero_cost_edges_pivot_degenerately(self):
        """Size-1 relations cost log 1 = 0: every ratio test ties at
        zero, which is where a simplex without Bland's rule cycles."""
        logs = [0.0, 0.0, 0.0, math.log(50), 0.0, math.log(50)]
        value, weights = fractional_cover("xyzw", FOUR_CLIQUE, logs)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert is_feasible_cover(FOUR_CLIQUE, weights)
        assert agm_bound(FOUR_CLIQUE, [1, 1, 1, 50, 1, 50]) \
            == pytest.approx(1.0)

    def test_weights_align_with_the_edges_given(self):
        value, weights = fractional_cover(
            "ab", [{"q"}, {"a", "b"}, {"a"}], [1.0, 3.0, 1.0])
        assert value == pytest.approx(3.0)
        assert weights[0] == 0.0
        assert is_feasible_cover([{"q"}, {"a", "b"}, {"a"}], weights, "ab")

    def test_uncoverable_vertex_gets_zero_weights(self):
        value, weights = fractional_cover(["x", "q"], [{"x", "y"}])
        assert value == math.inf and weights == [0.0]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            fractional_cover("xy", [{"x", "y"}], [-1.0])


class TestCanonicalCache:
    """Bags that differ only in edge order or variable names are one
    cache entry and one solve (``lru_cache``'s own miss counter)."""

    def test_triangle_permutations_and_renaming_share_an_entry(self):
        agm._cached_rho_star.cache_clear()
        bags = [list(p) for p in itertools.permutations(TRIANGLE)]
        bags.append([{"p", "q"}, {"q", "r"}, {"p", "r"}])
        values = {rho_star(set().union(*bag), bag) for bag in bags}
        assert values == {1.5}
        info = agm._cached_rho_star.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits == len(bags) - 1

    def test_uncovered_attributes_do_not_split_the_key(self):
        """Only the attributes to cover reach the LP: the selected
        ``s`` below is cut from its edge before the lookup."""
        agm._cached_rho_star.cache_clear()
        assert rho_star("xy", [{"x", "y"}]) == 1.0
        assert rho_star("xy", [{"x", "y", "s"}, {"s"}]) == 1.0
        assert agm._cached_rho_star.cache_info().misses == 1

    def test_sizes_follow_their_edges_through_the_permutation(self):
        agm._cached_agm_bound.cache_clear()
        sizes = [100, 100, 10 ** 9]
        bounds = {agm_bound([TRIANGLE[i] for i in order],
                            [sizes[i] for i in order])
                  for order in itertools.permutations(range(3))}
        assert len(bounds) == 1
        assert bounds.pop() == pytest.approx(100.0 * 100.0)
        assert agm._cached_agm_bound.cache_info().misses == 1

    def test_equal_sizes_are_answered_from_the_rho_star_cache(self):
        agm._cached_rho_star.cache_clear()
        agm._cached_agm_bound.cache_clear()
        assert agm_bound(TRIANGLE, [64, 64, 64]) == pytest.approx(512.0)
        assert agm_bound(FOUR_CLIQUE, [9] * 6) == pytest.approx(81.0)
        assert agm._cached_agm_bound.cache_info().misses == 0
        assert agm._cached_rho_star.cache_info().misses == 2


class TestAGMBound:
    def test_triangle_example_2_1(self):
        """The paper's Example 2.1: N tuples per relation → N^{3/2}."""
        n = 100
        assert agm_bound(TRIANGLE, [n, n, n]) == pytest.approx(n ** 1.5,
                                                               rel=1e-6)

    def test_zero_relation_zero_bound(self):
        assert agm_bound(TRIANGLE, [0, 10, 10]) == 0.0

    def test_asymmetric_sizes(self):
        # With one huge relation the LP shifts weight to the small ones.
        balanced = agm_bound(TRIANGLE, [100, 100, 100])
        lopsided = agm_bound(TRIANGLE, [100, 100, 10 ** 9])
        assert lopsided == pytest.approx(100 * 100)  # weight on small edges
        assert lopsided >= balanced / 2

    def test_bound_is_tight_on_complete_graph(self):
        """Example 2.1's tightness: K_k has Θ(N^{3/2}) triangles."""
        from repro.graphs import complete_graph, undirect
        k = 12
        edges = undirect(complete_graph(k))
        n = edges.shape[0]
        output = k * (k - 1) * (k - 2)  # ordered triangles
        bound = agm_bound(TRIANGLE, [n, n, n])
        assert output <= bound
        assert output >= bound / 8  # tight within a small constant


class TestFeasibility:
    def test_half_cover_feasible_for_triangle(self):
        assert is_feasible_cover(TRIANGLE, [0.5, 0.5, 0.5])

    def test_example_2_1_integral_cover(self):
        assert is_feasible_cover(TRIANGLE, [1.0, 0.0, 1.0])

    def test_insufficient_cover_rejected(self):
        assert not is_feasible_cover(TRIANGLE, [0.5, 0.5, 0.0])

    def test_negative_weights_rejected(self):
        assert not is_feasible_cover(TRIANGLE, [2.0, 2.0, -0.1])

    def test_cover_bound_value(self):
        assert cover_bound_value([100, 100, 100], [0.5, 0.5, 0.5]) == \
            pytest.approx(1000.0)


@given(n_nodes=st.integers(4, 18), n_edges=st.integers(3, 60),
       seed=st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_agm_inequality_holds_on_random_graphs(n_nodes, n_edges, seed):
    """Equation 1 of the paper: |OUT| ≤ ∏ |R_e|^{x_e} for the optimal
    cover, measured against the true triangle-join output."""
    from tests.conftest import random_undirected_edges
    from repro.graphs import undirect

    edges = random_undirected_edges(n_nodes, n_edges, seed=seed)
    if not edges:
        return
    both = undirect(np.asarray(edges))
    m = both.shape[0]
    # Count ordered triangle-join output tuples.
    adjacency = {}
    for u, v in both.tolist():
        adjacency.setdefault(u, set()).add(v)
    out = sum(1 for u in adjacency for v in adjacency[u]
              for w in adjacency.get(v, ())
              if w in adjacency.get(u, set()))
    assert out <= agm_bound(TRIANGLE, [m, m, m]) + 1e-6


# -- the solver against scipy's HiGHS (test-only dependency) -----------------


def _check_against_linprog(vertices, edges, log_sizes):
    linprog = pytest.importorskip("scipy.optimize").linprog
    value, weights = fractional_cover(vertices, edges, log_sizes)
    covered = set().union(*edges) if edges else set()
    if not set(vertices) <= covered:
        assert value == math.inf
        return
    assert is_feasible_cover(edges, weights, vertices)
    assert sum(w * c for w, c in zip(weights, log_sizes)) \
        == pytest.approx(value, rel=1e-9, abs=1e-9)
    if not vertices:
        assert value == 0.0
        return
    matrix = [[-1.0 if v in e else 0.0 for e in edges] for v in vertices]
    reference = linprog(c=log_sizes, A_ub=matrix,
                        b_ub=[-1.0] * len(vertices),
                        bounds=[(0, None)] * len(edges), method="highs")
    assert reference.success
    assert value == pytest.approx(reference.fun, rel=1e-9, abs=1e-9)


@st.composite
def _hypergraphs(draw):
    n_vertices = draw(st.integers(1, 6))
    edges = draw(st.lists(
        st.sets(st.integers(0, n_vertices - 1), min_size=1, max_size=3),
        min_size=1, max_size=8))
    sizes = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(edges),
                          max_size=len(edges)))
    cover = draw(st.sets(st.integers(0, n_vertices - 1)))
    return sorted(cover), edges, [math.log(s) for s in sizes]


@given(_hypergraphs())
@settings(max_examples=200, deadline=None)
def test_solver_matches_linprog_on_random_hypergraphs(case):
    _check_against_linprog(*case)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_solver_matches_linprog_on_fuzzer_bodies(seed):
    """Every rule body ``repro.fuzz.gen`` emits, as the hypergraph the
    GHD search would price, at the generated relations' sizes."""
    from repro.fuzz.gen import generate_case
    case = generate_case(seed)
    sizes = {r.name: len(r.tuples) for r in case.relations}
    for rule in case.rules:
        atoms = [a for a in rule.body if a.variables]
        edges = [set(a.variables) for a in atoms]
        logs = [math.log(max(sizes.get(a.name, 1000), 1)) for a in atoms]
        vertices = sorted(set().union(*edges)) if edges else []
        _check_against_linprog(vertices, edges, logs)
        _check_against_linprog(vertices, edges, [1.0] * len(edges))
