"""Seed-derived inputs: graphs, selected nodes, edge-list files.

The harness generates everything itself (nothing here imports
``repro``), so the program under test only ever sees inputs, and an
edit to the repo's own dataset generators cannot move the benchmark.
One ``--seed`` fixes every graph, every selected node and every query
constant of a run.
"""

import numpy as np


def rng_for(seed, stream):
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(stream)])


def chung_lu(n_nodes, n_edges, exponent, rng):
    """Power-law random graph: exactly ``n_edges`` distinct undirected
    edges, endpoints drawn with probability ~ rank^(-1/(exponent-1)).

    Returns an ``(n_edges, 2)`` int64 array.  Node labels are a random
    permutation (a label says nothing about degree) and rows come in
    random order and orientation, as an edge list found in the wild.
    """
    weights = np.arange(1, n_nodes + 1, dtype=np.float64) \
        ** (-1.0 / (exponent - 1.0))
    cumulative = np.cumsum(weights / weights.sum())
    keys = np.empty(0, dtype=np.int64)
    while keys.size < n_edges:
        draw = 2 * (n_edges - keys.size) + 64
        u = np.searchsorted(cumulative, rng.random(draw)).clip(0, n_nodes - 1)
        v = np.searchsorted(cumulative, rng.random(draw)).clip(0, n_nodes - 1)
        keep = u != v
        low, high = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        merged = np.concatenate([keys, low * n_nodes + high])
        # keep draw order, so the cut below takes the first n_edges
        # distinct edges drawn rather than the smallest keys
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:n_edges]
    edges = np.stack([keys // n_nodes, keys % n_nodes], axis=1)
    edges = rng.permutation(n_nodes)[edges]
    flip = rng.random(n_edges) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges[rng.permutation(n_edges)]


def degrees(edges, n_nodes):
    return np.bincount(edges.ravel(), minlength=n_nodes)


def nodes_by_degree(edges, n_nodes):
    """Non-isolated node labels, highest degree first (ties: lower
    label first)."""
    degree = degrees(edges, n_nodes)
    nodes = np.flatnonzero(degree)
    return nodes[np.lexsort((nodes, -degree[nodes]))]


def write_edgelist(path, edges):
    """Whitespace edge-list file, one ``src dst`` per line."""
    with open(path, "w") as handle:
        handle.write("".join("%d %d\n" % (u, v) for u, v in edges.tolist()))


def adjacency(edges, n_nodes):
    """Neighbour sets of the undirected graph."""
    neighbours = [set() for _ in range(n_nodes)]
    for u, v in edges.tolist():
        neighbours[u].add(v)
        neighbours[v].add(u)
    return neighbours
