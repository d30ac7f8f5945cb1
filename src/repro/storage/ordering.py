"""Node-ordering schemes for dictionary id assignment (paper App. A.1.1).

Every scheme takes an edge array over ``n`` node ids and returns a
permutation ``perm`` with ``perm[old_id] == new_id``.  The orderings
change set ranges/densities in the trie and, for symmetric queries with
pruning, the number of comparisons — the paper finds over an order of
magnitude spread between the best and worst orderings on skewed graphs.

Implemented schemes: ``random``, ``bfs``, ``degree``, ``rev_degree``,
``strong_runs``, ``shingle``, and the paper's proposed ``hybrid``
(BFS labels, then stable sort by descending degree).
"""

from collections import deque

import numpy as np

#: Names accepted by :func:`order_nodes`.
ORDERINGS = ("identity", "random", "bfs", "degree", "rev_degree",
             "strong_runs", "shingle", "hybrid")


def _degrees(edges, n_nodes):
    """Undirected degree of every node id in ``[0, n_nodes)``."""
    deg = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(deg, edges[:, 0], 1)
    np.add.at(deg, edges[:, 1], 1)
    return deg


def _adjacency(edges, n_nodes):
    """Sorted adjacency list per node (undirected view of ``edges``)."""
    both = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    both = both[order]
    starts = np.searchsorted(both[:, 0], np.arange(n_nodes))
    bounds = np.append(starts, both.shape[0])
    return [both[bounds[i]:bounds[i + 1], 1] for i in range(n_nodes)]


def _ranking_to_permutation(ranking):
    """Convert "node visited k-th" order into perm[old] = new."""
    perm = np.empty(len(ranking), dtype=np.uint32)
    perm[np.asarray(ranking)] = np.arange(len(ranking), dtype=np.uint32)
    return perm


def identity_order(edges, n_nodes, seed=None):
    """Keep ids as they arrived (the input/insertion ordering)."""
    return np.arange(n_nodes, dtype=np.uint32)


def random_order(edges, n_nodes, seed=0):
    """Uniform random relabeling — the paper's baseline ordering."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n_nodes).astype(np.uint32)


def degree_order(edges, n_nodes, seed=None):
    """Descending-degree ordering: the highest-degree node gets id 0.

    This is the "default standard" that most graph engines (and the
    paper's triangle pruning) use.
    """
    deg = _degrees(edges, n_nodes)
    ranking = np.argsort(-deg, kind="stable")
    return _ranking_to_permutation(ranking)


def rev_degree_order(edges, n_nodes, seed=None):
    """Ascending-degree ordering."""
    deg = _degrees(edges, n_nodes)
    ranking = np.argsort(deg, kind="stable")
    return _ranking_to_permutation(ranking)


def bfs_order(edges, n_nodes, seed=None):
    """Breadth-first labels from the highest-degree node.

    Unreached components are started from their own highest-degree node,
    so the permutation is total even on disconnected graphs.
    """
    deg = _degrees(edges, n_nodes)
    adjacency = _adjacency(edges, n_nodes)
    visited = np.zeros(n_nodes, dtype=bool)
    ranking = []
    for start in np.argsort(-deg, kind="stable"):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([int(start)])
        while queue:
            node = queue.popleft()
            ranking.append(node)
            for neighbor in adjacency[node]:
                neighbor = int(neighbor)
                if not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
    return _ranking_to_permutation(ranking)


def strong_runs_order(edges, n_nodes, seed=None):
    """Strong-Runs: by descending degree, assign continuous numbers to
    each node's not-yet-numbered neighbors (a cheap BFS approximation)."""
    deg = _degrees(edges, n_nodes)
    adjacency = _adjacency(edges, n_nodes)
    assigned = np.zeros(n_nodes, dtype=bool)
    ranking = []
    for node in np.argsort(-deg, kind="stable"):
        node = int(node)
        if not assigned[node]:
            assigned[node] = True
            ranking.append(node)
        for neighbor in adjacency[node]:
            neighbor = int(neighbor)
            if not assigned[neighbor]:
                assigned[neighbor] = True
                ranking.append(neighbor)
    return _ranking_to_permutation(ranking)


def shingle_order(edges, n_nodes, seed=0):
    """Shingle ordering: cluster nodes with similar neighborhoods.

    Following Chierichetti et al., nodes are sorted by the min-hash
    "shingle" of their neighborhood (the smallest neighbor under a random
    permutation), which places nodes with overlapping neighborhoods next
    to each other.
    """
    rng = np.random.default_rng(seed)
    hash_perm = rng.permutation(n_nodes)
    adjacency = _adjacency(edges, n_nodes)
    shingles = np.empty(n_nodes, dtype=np.int64)
    for node in range(n_nodes):
        neighbors = adjacency[node]
        shingles[node] = hash_perm[neighbors].min() if neighbors.size \
            else n_nodes
    ranking = np.lexsort((np.arange(n_nodes), shingles))
    return _ranking_to_permutation(ranking)


def hybrid_order(edges, n_nodes, seed=None):
    """The paper's proposed hybrid: BFS labels, then a stable sort by
    descending degree, so equal-degree nodes keep their BFS locality."""
    deg = _degrees(edges, n_nodes)
    bfs_perm = bfs_order(edges, n_nodes)
    # bfs label of node v is bfs_perm[v]; stable sort by (-degree, bfs).
    ranking = np.lexsort((bfs_perm, -deg))
    return _ranking_to_permutation(ranking)


_SCHEMES = {
    "identity": identity_order,
    "random": random_order,
    "bfs": bfs_order,
    "degree": degree_order,
    "rev_degree": rev_degree_order,
    "strong_runs": strong_runs_order,
    "shingle": shingle_order,
    "hybrid": hybrid_order,
}


def order_nodes(edges, n_nodes, scheme="degree", seed=0):
    """Compute a node permutation under the named scheme.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer array of (src, dst) pairs over ``[0, n_nodes)``.
    scheme:
        One of :data:`ORDERINGS`.
    seed:
        Seed for the randomized schemes (``random``, ``shingle``).
    """
    if scheme not in _SCHEMES:
        raise ValueError("unknown ordering %r (expected one of %s)"
                         % (scheme, ", ".join(ORDERINGS)))
    edges = np.asarray(edges)
    if edges.size == 0:
        return np.arange(n_nodes, dtype=np.uint32)
    return _SCHEMES[scheme](edges.astype(np.int64, copy=False), n_nodes,
                            seed=seed)
