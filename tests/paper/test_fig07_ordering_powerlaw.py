"""Figure 7: node-ordering effect vs power-law exponent.

Triangle counting on synthetic power-law graphs under the degree, BFS
and hybrid orderings (with symmetric filtering, where ordering matters
most).  Paper shape: degree ordering wins at low exponents (heavy
hubs), BFS wins at high exponents, and the proposed hybrid tracks
whichever of the two is better.
"""

from repro import Database
from repro.graphs import TRIANGLE_COUNT, chung_lu_graph


def ops(exponent, ordering):
    edges = chung_lu_graph(1200, 6000, exponent, seed=int(exponent * 10))
    db = Database(ordering=ordering)
    db.load_graph("Edge", [tuple(e) for e in edges], prune=True)
    db.query(TRIANGLE_COUNT)
    return db.counter.total_ops


def test_hybrid_never_far_from_best():
    for exponent in (1.6, 3.0):
        best = min(ops(exponent, o) for o in ("degree", "bfs"))
        assert ops(exponent, "hybrid") <= 1.5 * best
