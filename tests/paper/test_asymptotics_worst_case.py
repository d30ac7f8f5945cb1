"""Worst-case optimality sweep (paper §1 and §2.1, Example 2.1).

Two instance families separate the three §1 claims:

* **Complete graphs K_n** — the AGM worst case.  The engine's uint-only
  ("-R") op count grows as ~N^{3/2} with the edge count, matching the
  AGM bound; the full engine grows *slower* because its bitset layouts
  cover dense neighborhoods with 256-wide registers — the paper's
  "SIMD layouts give large constant-factor wins on top of optimality".
* **Star graphs** — the classic pairwise-killer: a hub with k spokes
  has k² wedges and zero triangles, so any pairwise plan does Θ(N²)
  work while a worst-case optimal plan does ~N.
"""

import math

import numpy as np

from repro import Database
from repro.baselines import PairwiseEngine
from repro.graphs import TRIANGLE_COUNT, complete_graph, undirect
from repro.sets import OpCounter

COMPLETE_SIZES = (12, 17, 24, 34)
STAR_SIZES = (64, 128, 256, 512)


def star_graph(spokes):
    return np.stack([np.zeros(spokes, dtype=np.int64),
                     np.arange(1, spokes + 1)], axis=1)


def eh_ops(edges, **overrides):
    # lane ops per set intersection: an interpreter measurement
    db = Database(execution_mode="interpreted", **overrides)
    db.load_graph("Edge", [tuple(e) for e in edges], prune=True)
    db.query(TRIANGLE_COUNT)
    return edges.shape[0], db.counter.total_ops


def pairwise_ops(edges):
    engine = PairwiseEngine()
    counter = OpCounter()
    engine.triangle_count(edges, counter=counter)
    return edges.shape[0], counter.total_ops


def fitted_exponent(points):
    logs = [(math.log(n), math.log(max(ops, 1))) for n, ops in points]
    xs, ys = zip(*logs)
    return float(np.polyfit(xs, ys, 1)[0])


def test_uint_engine_tracks_the_agm_exponent():
    points = [eh_ops(undirect(complete_graph(n)), layout_level="uint_only")
              for n in COMPLETE_SIZES]
    exponent = fitted_exponent(points)
    assert 1.2 < exponent < 1.75, exponent


def test_full_engine_beats_uint_on_dense_worst_case():
    """Bitset layouts cut op counts below uint on dense data — the
    constant-factor SIMD win stacked on worst-case optimality."""
    for n in (17, 34):
        edges = undirect(complete_graph(n))
        _, full = eh_ops(edges)
        _, uint = eh_ops(edges, layout_level="uint_only")
        assert full < uint


def test_pairwise_is_quadratic_on_stars():
    points = [pairwise_ops(undirect(star_graph(k))) for k in STAR_SIZES]
    exponent = fitted_exponent(points)
    assert exponent > 1.85, exponent


def test_wcoj_is_near_linear_on_stars():
    points = [eh_ops(undirect(star_graph(k))) for k in STAR_SIZES]
    exponent = fitted_exponent(points)
    assert exponent < 1.3, exponent


def test_gap_widens_with_scale():
    """The √N separation: the pairwise/WCOJ op ratio must grow."""
    ratios = []
    for k in (64, 512):
        edges = undirect(star_graph(k))
        _, wcoj = eh_ops(edges)
        _, pairwise = pairwise_ops(edges)
        ratios.append(pairwise / max(wcoj, 1))
    assert ratios[1] > 3 * ratios[0]
