"""AGM bounds and fractional covers (paper §2.1).

The AGM bound of Atserias, Grohe, and Marx upper-bounds a join's output by
``∏ |R_e|^{x_e}`` for any *feasible* fractional edge cover ``x``.  The
best bound is found by a linear program (footnote 3 of the paper): take
logs and minimize ``Σ x_e · log |R_e|`` subject to covering every vertex.
The GHD optimizer prices every candidate bag with this LP.

The LPs are tiny (≤ ~8 edges over ≤ ~6 vertices), so they are solved
here, by a dense simplex on the *packing dual* — ``max Σ y_v`` subject
to ``Σ_{v∈e} y_v ≤ log |R_e|``, ``y ≥ 0`` — whose slack basis is
feasible because every cost is ≥ 0.  No LP library is imported.
"""

import math
from functools import lru_cache

#: Pivot / optimality tolerance.  Entries are small rationals built from
#: a 0/1 matrix, so anything this close to zero is round-off.
_EPS = 1e-12


def _solve_packing(n_vertices, edges, costs):
    """Simplex on ``max Σ y_v  s.t.  Σ_{v∈e} y_v ≤ costs[e],  y ≥ 0``.

    ``edges`` holds vertex indexes below ``n_vertices``.  Returns the
    optimum and the duals of the edge constraints — by LP duality the
    optimal fractional cover weights — or ``(inf, None)`` when the
    packing is unbounded, i.e. some vertex lies in no edge.  Bland's
    rule (lowest-index entering column, lowest-index leaving basic
    variable among ratio ties) rules out cycling on the degenerate
    pivots zero-cost edges cause.
    """
    n_edges = len(edges)
    width = n_vertices + n_edges + 1
    rows = []
    for index, edge in enumerate(edges):
        row = [0.0] * width
        for vertex in edge:
            row[vertex] = 1.0
        row[n_vertices + index] = 1.0
        row[-1] = float(costs[index])
        rows.append(row)
    objective = [-1.0] * n_vertices + [0.0] * (n_edges + 1)
    basis = list(range(n_vertices, n_vertices + n_edges))
    # Each pivot strictly follows Bland's order, so the basis never
    # repeats; the cap only turns a round-off livelock into an error.
    for _ in range(64 * width):
        column = next((j for j in range(width - 1)
                       if objective[j] < -_EPS), None)
        if column is None:
            return objective[-1], [max(0.0, w) for w in
                                   objective[n_vertices:-1]]
        leaving, best = None, math.inf
        for index, row in enumerate(rows):
            if row[column] > _EPS:
                ratio = row[-1] / row[column]
                if ratio < best - _EPS or (
                        ratio <= best + _EPS
                        and basis[index] < basis[leaving]):
                    leaving, best = index, ratio
        if leaving is None:
            return math.inf, None
        pivot_row = rows[leaving]
        scale = pivot_row[column]
        pivot_row[:] = [entry / scale for entry in pivot_row]
        for row in rows + [objective]:
            factor = row[column]
            if row is not pivot_row and factor != 0.0:
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]
        basis[leaving] = column
    raise RuntimeError("fractional cover simplex did not terminate")


def fractional_cover(vertices, edge_varsets, log_sizes=None):
    """Solve the fractional-cover LP.

    Parameters
    ----------
    vertices:
        Iterable of vertex names that must be covered.
    edge_varsets:
        One set of vertex names per hyperedge.
    log_sizes:
        Per-edge objective weights (``log |R_e|``, each ≥ 0); uniform
        1.0 when omitted, in which case the optimum is the fractional
        edge cover number ρ* (the exponent of ``N`` in the bound).

    Returns
    -------
    (value, weights):
        The LP optimum and the per-edge cover weights.  ``value`` is
        ``+inf`` when some vertex is not covered by any edge.
    """
    index_of = {v: i for i, v in enumerate(dict.fromkeys(vertices))}
    edges = [[index_of[v] for v in set(e) if v in index_of]
             for e in edge_varsets]
    if log_sizes is None:
        log_sizes = [1.0] * len(edges)
    if any(cost < 0 for cost in log_sizes):
        raise ValueError("fractional cover costs must be non-negative")
    value, weights = _solve_packing(len(index_of), edges, log_sizes)
    if weights is None:
        return math.inf, [0.0] * len(edges)
    return value, weights


def _canonical_edges(vertices, edge_varsets):
    """Edges as sorted tuples of vertex *ranks* (position in sorted
    order), cut down to ``vertices``: the part of a bag the LP sees,
    spelled the same however the bag's edges are ordered and whatever
    its variables are called (up to order-preserving renaming)."""
    rank = {v: i for i, v in enumerate(sorted(set(vertices)))}
    return len(rank), [tuple(sorted(rank[v] for v in set(e) if v in rank))
                       for e in edge_varsets]


@lru_cache(maxsize=4096)
def _cached_rho_star(n_vertices, edges_key):
    value, _ = fractional_cover(range(n_vertices), edges_key)
    return value


def rho_star(vertices, edge_varsets):
    """Fractional edge cover number ρ* of ``vertices`` using the edges.

    This is the bag width used by the GHD optimizer: with all relations of
    size ``N``, a bag of width ``w`` costs ``O(N^w)``.  Cached on the
    canonical bag — the GHD search asks for the same bags repeatedly,
    and for permuted and renamed copies of them.
    """
    n_vertices, edges = _canonical_edges(vertices, edge_varsets)
    return _cached_rho_star(n_vertices,
                            tuple(sorted(set(edges) - {()})))


def agm_bound(edge_varsets, sizes):
    """The numeric AGM bound ``min_x ∏ |R_e|^{x_e}`` for a full join.

    ``sizes`` is one cardinality per edge.  Edges of size 0 make the
    bound 0; size-1 edges contribute nothing to the objective.  A bag
    whose edges all have one size ``N`` is ``N^ρ*`` and is answered from
    the ρ* cache; anything else is cached on the canonical bag with its
    sizes aligned to the canonical edge order.
    """
    if any(s == 0 for s in sizes):
        return 0.0
    sizes = [max(int(s), 1) for s in sizes]
    vertices = frozenset().union(*edge_varsets)
    if len(set(sizes)) == 1:
        return math.exp(rho_star(vertices, edge_varsets)
                        * math.log(sizes[0]))
    n_vertices, edges = _canonical_edges(vertices, edge_varsets)
    return _cached_agm_bound(n_vertices, tuple(sorted(zip(edges, sizes))))


@lru_cache(maxsize=16384)
def _cached_agm_bound(n_vertices, sized_edges):
    value, _ = fractional_cover(
        range(n_vertices), [edge for edge, _ in sized_edges],
        [math.log(size) for _, size in sized_edges])
    return math.exp(value)


def is_feasible_cover(edge_varsets, weights, vertices=None):
    """Check AGM feasibility: every vertex covered with total weight ≥ 1.

    Used by the property-based tests that verify Equation 1 of the paper
    against actual join outputs.
    """
    edge_varsets = [frozenset(e) for e in edge_varsets]
    if vertices is None:
        vertices = set().union(*edge_varsets) if edge_varsets else set()
    if any(w < 0 for w in weights):
        return False
    for vertex in vertices:
        total = sum(w for e, w in zip(edge_varsets, weights) if vertex in e)
        if total < 1.0 - 1e-9:
            return False
    return True


def cover_bound_value(sizes, weights):
    """Evaluate ``∏ sizes[e]^{weights[e]}`` for a given cover."""
    bound = 1.0
    for size, weight in zip(sizes, weights):
        bound *= max(size, 0) ** weight
    return bound
