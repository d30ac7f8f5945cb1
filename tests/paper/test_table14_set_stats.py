"""Table 14: cardinality/range profile of neighborhood sets.

The paper reports mean/max cardinality and mean/max range of the sets
in LiveJournal and Twitter to motivate why graph sets are sparse (mean
cardinality tiny relative to mean range) — the regime where the uint
layout dominates and galloping matters.
"""

import pytest

from repro.graphs import neighborhoods
from repro.sets import set_statistics

from tests.paper.conftest import undirected_edges_of


@pytest.mark.parametrize("dataset", ("livejournal", "twitter"))
def test_sets_are_sparse(dataset):
    """The mean range dwarfs the mean cardinality by orders of
    magnitude."""
    stats = set_statistics(neighborhoods(undirected_edges_of(dataset)))
    assert stats["mean_range"] > 20 * stats["mean_cardinality"]
    assert stats["max_range"] >= stats["mean_range"]
