"""Table 4: layout-optimizer granularity vs the oracle lower bound.

For triangle counting on each micro dataset, the simulated-op cost of
the relation-, set-, and block-level optimizers is divided by the
brute-force oracle's per-intersection optimum (paper §4.4).

Paper shape: the set level is closest to the oracle overall (within
1.1x–1.6x); the relation level is worst on the high-skew dataset
(7.3x on Google+); block level sits in between.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import CSRGraph
from repro.graphs import MICRO_DATASETS, TRIANGLE_COUNT
from repro.sets import oracle_intersection_cost

from tests.paper.conftest import database_for, pruned_edges_of

LEVELS = ("relation", "set", "block")


@lru_cache(maxsize=None)
def level_ops(dataset, level):
    """Lane ops of one triangle count (the same on every run, so the
    two tests below share one run per dataset and level)."""
    db = database_for(dataset, prune=True, key="t4:" + level,
                      layout_level=level)
    db.counter.reset()
    db.query(TRIANGLE_COUNT)
    return db.counter.total_ops


@lru_cache(maxsize=None)
def oracle_ops(dataset):
    """Replay the triangle plan's intersections, pricing each at the
    oracle's optimum over every layout/algorithm combination."""
    pruned = pruned_edges_of(dataset)
    graph = CSRGraph(pruned)
    roots = np.unique(pruned[:, 0]).astype(np.uint32)
    total = 0
    for x in roots.tolist():
        neighborhood_x = graph.neighbors(int(x)).astype(np.uint32)
        cost, _ = oracle_intersection_cost(neighborhood_x, roots)
        total += cost
        candidates = np.intersect1d(neighborhood_x, roots,
                                    assume_unique=True)
        for y in candidates.tolist():
            neighborhood_y = graph.neighbors(int(y)).astype(np.uint32)
            if neighborhood_y.size == 0:
                continue
            cost, _ = oracle_intersection_cost(neighborhood_x,
                                               neighborhood_y)
            total += cost
    return total


@pytest.mark.parametrize("dataset", MICRO_DATASETS)
@pytest.mark.parametrize("level", LEVELS)
def test_oracle_is_a_lower_bound(dataset, level):
    """Table 4 never shows < 1.0x: no optimizer level beats the
    oracle's per-intersection optimum."""
    ratio = level_ops(dataset, level) / max(oracle_ops(dataset), 1)
    assert ratio >= 0.99


def test_set_level_wins_overall():
    """The paper's conclusion: set-level is the best default."""
    totals = {level: 0.0 for level in LEVELS}
    for dataset in MICRO_DATASETS:
        for level in LEVELS:
            totals[level] += level_ops(dataset, level)
    assert totals["set"] <= totals["relation"]
    assert totals["set"] <= totals["block"]
