"""Seeded inputs are reproducible; the oracles agree with brute force."""

import itertools
import json

import numpy as np
import pytest

from benchmarks.e2e import expected, inputs, workloads


def wire(plan):
    return json.dumps(plan["ops"], sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_op_lists_are_a_function_of_the_seed(name):
    first = workloads.plan(name, 11, smoke=True)
    again = workloads.plan(name, 11, smoke=True)
    other = workloads.plan(name, 12, smoke=True)
    assert wire(first) == wire(again)
    assert np.array_equal(first["edges"], again["edges"])
    assert not np.array_equal(first["edges"], other["edges"])
    if name != "patterns":  # its texts hold no seed-chosen constant
        assert wire(first) != wire(other)


def test_generated_graph_is_simple_and_exact():
    edges = inputs.chung_lu(200, 700, 2.1, inputs.rng_for(3, 0))
    assert edges.shape == (700, 2)
    assert (edges[:, 0] != edges[:, 1]).all()
    undirected = {tuple(sorted(edge)) for edge in edges.tolist()}
    assert len(undirected) == 700
    assert edges.min() >= 0 and edges.max() < 200


def test_serve_block_returns_the_catalog_to_its_base_state():
    for smoke in (True, False):
        plan = workloads.plan("serve_mixed", 5, smoke=smoke)
        first, second = plan["connections"]
        assert len(first) == len(second)
        writes = [op["kind"] for op in first if "rows" in op]
        assert writes == ["append", "delete"] * (len(writes) // 2)
        assert writes and not [op for op in second if "rows" in op]
        # the batch is absent from the base graph and closes wedges
        neighbours = inputs.adjacency(plan["edges"], plan["nodes"])
        for u, w in plan["batch"]:
            assert w not in neighbours[u] and neighbours[u] & neighbours[w]
        misses = [op["text"] for ops in plan["connections"]
                  for op in ops if op["kind"] == "miss"]
        assert len(set(misses)) == len(misses)


def brute(edges, n_nodes, pattern, fixed=None):
    """Count homomorphisms of ``pattern`` (pairs of variable indexes,
    each a directed atom over the symmetric edge relation)."""
    neighbours = inputs.adjacency(edges, n_nodes)
    n_vars = 1 + max(max(pair) for pair in pattern)
    total = 0
    for binding in itertools.product(range(n_nodes), repeat=n_vars):
        if fixed is not None and binding[fixed[0]] != fixed[1]:
            continue
        if all(binding[b] in neighbours[binding[a]] for a, b in pattern):
            total += 1
    return total


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def test_pattern_oracles_match_brute_force():
    edges = inputs.chung_lu(9, 18, 2.1, inputs.rng_for(1, 0))
    matrix = expected.adjacency_matrix(edges, 9)
    assert expected.triangle_count(matrix) * 6 == brute(edges, 9, TRIANGLE)
    clique = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    assert expected.four_clique_count(matrix) * 24 \
        == brute(edges, 9, clique)
    assert expected.lollipop_count(matrix) \
        == brute(edges, 9, TRIANGLE + [(0, 3)])
    neighbours = inputs.adjacency(edges, 9)
    assert expected.ordered_triangles(neighbours) \
        == brute(edges, 9, TRIANGLE)
    hub = int(inputs.nodes_by_degree(edges, 9)[0])
    assert expected.two_hop_count(neighbours, hub) \
        == brute(edges, 9, [(0, 1), (1, 2)], fixed=(0, hub))


def test_barbell_and_selection_oracles_match_brute_force():
    edges = inputs.chung_lu(6, 10, 2.1, inputs.rng_for(2, 0))
    matrix = expected.adjacency_matrix(edges, 6)
    barbell = TRIANGLE + [(0, 3), (3, 4), (4, 5), (3, 5)]
    assert expected.barbell_count(matrix) == brute(edges, 6, barbell)
    hub = int(inputs.nodes_by_degree(edges, 6)[0])
    # SK4: x, y, z, u a clique, x adjacent to the selected node s
    clique = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    assert expected.selected_four_clique_count(matrix, hub) \
        == brute(edges, 6, clique + [(0, 4)], fixed=(4, hub))


def test_analytics_oracles_on_a_path():
    # 0 - 1 - 2 - 3 and an isolated node 4
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    matrix = expected.adjacency_matrix(edges, 5)
    assert expected.hop_distances(matrix, 0) == {0: 2.0, 1: 1.0, 2: 2.0,
                                                 3: 3.0}
    ranks = expected.pagerank(matrix, 1)
    assert set(ranks) == {0, 1, 2, 3}
    # node 0 hears only from node 1, which splits 1/4 over 2 neighbours
    assert ranks[0] == pytest.approx(0.15 + 0.85 * 0.25 / 2)


def test_mismatch_compares_numbers_and_maps_to_a_tolerance():
    assert expected.mismatch(10.0, 10.0) is None
    assert expected.mismatch(1e9, 1e9 + 0.5) is None
    assert expected.mismatch(10.0, 11.0) is not None
    assert expected.mismatch(10.0, "10") is not None
    assert expected.mismatch({1: 2.0}, {1: 2.0}) is None
    assert expected.mismatch({1: 2.0}, {1: 2.1}) is not None
    assert expected.mismatch({1: 2.0}, {2: 2.0}) is not None
