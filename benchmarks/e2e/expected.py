"""Expected answers, computed without the engine under test.

Pattern counts come from adjacency-matrix algebra, PageRank from a
numpy power iteration, hop distances from a breadth-first search and
the daemon's reads from neighbour sets.  Nothing here imports
``repro``; the queries' semantics (ordered matches over the symmetric
edge relation, one match per clique over the pruned one) are spelled
out per function.
"""

import numpy as np
from scipy import sparse

from . import inputs


def adjacency_matrix(edges, n_nodes):
    """Symmetric 0/1 CSR adjacency matrix."""
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    matrix = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.float64), (rows, cols)),
        shape=(n_nodes, n_nodes))
    matrix.data[:] = 1.0  # duplicates in the input would have summed
    return matrix


def closed_walks3(matrix):
    """diag(A^3): ordered triangles through each node (2 per triangle)."""
    return np.asarray(matrix.multiply(matrix @ matrix).sum(axis=1)).ravel()


def triangle_count(matrix):
    """Triangles, each once: trace(A^3) / 6 (pruned ``Edge``)."""
    return closed_walks3(matrix).sum() / 6.0


def _cliques4_through(matrix, node):
    """Ordered (y, z, u) completing a 4-clique with ``node``:
    trace(B^3) for B the graph induced on its neighbours."""
    around = matrix.indices[matrix.indptr[node]:matrix.indptr[node + 1]]
    induced = matrix[around][:, around]
    return closed_walks3(induced).sum()


def four_clique_count(matrix):
    """4-cliques, each once (pruned ``Edge``): every clique is seen
    from each of its 4 nodes in 6 orders."""
    return sum(_cliques4_through(matrix, node)
               for node in range(matrix.shape[0])) / 24.0


def lollipop_count(matrix):
    """Ordered triangle (x, y, z) plus any neighbour u of x."""
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    return float(closed_walks3(matrix) @ degree)


def barbell_count(matrix):
    """Ordered triangles at x and at p for every directed edge (x, p)."""
    walks = closed_walks3(matrix)
    return float(walks @ (matrix @ walks))


def selected_four_clique_count(matrix, node):
    """SK4: ordered 4-cliques (x, y, z, u) with x a neighbour of
    ``node``, over the symmetric ``Edge``."""
    around = matrix.indices[matrix.indptr[node]:matrix.indptr[node + 1]]
    return float(sum(_cliques4_through(matrix, x) for x in around))


def pagerank(matrix, iterations, damping=0.85):
    """The paper's un-normalised update on the non-isolated nodes:
    start at 1/N, then ``(1 - d) + d * sum(rank(z) / deg(z))``."""
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    nodes = np.flatnonzero(degree)
    rank = np.zeros(matrix.shape[0])
    rank[nodes] = 1.0 / nodes.size
    inverse = np.zeros_like(degree)
    inverse[nodes] = 1.0 / degree[nodes]
    for _ in range(iterations):
        rank = (1.0 - damping) + damping * (matrix @ (rank * inverse))
    return {int(node): float(rank[node]) for node in nodes}


def hop_distances(matrix, source):
    """The paper's SSSP program: neighbours of ``source`` start at 1,
    every other reachable node takes its breadth-first distance, and
    the source itself is reached back through a neighbour (2)."""
    distance = np.full(matrix.shape[0], -1, dtype=np.int64)
    frontier = matrix.indices[matrix.indptr[source]:matrix.indptr[source + 1]]
    distance[frontier] = 1
    level = 1
    while frontier.size:
        level += 1
        reached = np.unique(matrix[frontier].indices)
        frontier = reached[distance[reached] < 0]
        distance[frontier] = level
    return {int(node): float(distance[node])
            for node in np.flatnonzero(distance > 0)}


def two_hop_count(neighbours, node):
    """Ordered (y, z) with ``node``-y and y-z edges."""
    return float(sum(len(neighbours[y]) for y in neighbours[node]))


def ordered_triangles(neighbours):
    """Ordered triangles over the symmetric edge relation (6 each)."""
    return float(sum(len(neighbours[u] & neighbours[v])
                     for u in range(len(neighbours))
                     for v in neighbours[u]))


def mismatch(expected, actual, tolerance=1e-9):
    """``None`` when ``actual`` matches ``expected`` (numbers and
    ``{key: number}`` maps, to a relative tolerance), else a reason."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return "key sets differ"
        for key, value in expected.items():
            if abs(actual[key] - value) > tolerance * max(1.0, abs(value)):
                return "value at %r: expected %r, got %r" % (
                    key, value, actual[key])
        return None
    if not isinstance(actual, (int, float)) \
            or abs(actual - expected) > tolerance * max(1.0, abs(expected)):
        return "expected %r, got %r" % (expected, actual)
    return None


def block_answers(plan):
    """Expected answer of every operation of one block.

    Library and CLI workloads: a list parallel to ``plan["ops"]``.
    ``serve_mixed``: ``{query text: (answer, answer)}``, before and
    after the write batch is in (the only two states the catalog
    takes); map answers are keyed by 1-tuples as on the wire.
    """
    edges, n_nodes = plan["edges"], plan["nodes"]
    if plan["workload"] == "serve_mixed":
        batch = np.asarray(plan["batch"], dtype=np.int64)
        states = [inputs.adjacency(edges, n_nodes),
                  inputs.adjacency(np.concatenate([edges, batch]), n_nodes)]
        return {op["text"]: tuple(_serve_answer(op, neighbours)
                                  for neighbours in states)
                for op in plan["ops"] if "text" in op}
    matrix = adjacency_matrix(edges, n_nodes)
    counts = {"triangle": triangle_count, "four_clique": four_clique_count,
              "lollipop": lollipop_count, "barbell": barbell_count}
    answers = []
    for op in plan["ops"]:
        if op["kind"] in counts:
            answers.append(float(counts[op["kind"]](matrix)))
        elif op["kind"] == "pagerank":
            answers.append(pagerank(matrix, op["iterations"]))
        elif op["kind"] == "sssp":
            answers.append(hop_distances(matrix, op["source"]))
        else:
            answers.append(selected_four_clique_count(matrix, op["node"]))
    return answers


def _serve_answer(op, neighbours):
    if op["kind"] == "miss" or op["name"] == "two_hop":
        return two_hop_count(neighbours, op["node"])
    if op["name"] == "degrees":
        return {(node,): float(len(around))
                for node, around in enumerate(neighbours) if around}
    directed_edges = float(sum(len(around) for around in neighbours))
    return directed_edges * op["scale"] + ordered_triangles(neighbours)
