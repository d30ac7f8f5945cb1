"""Figure 6: the block-composite layout on sets with dense regions.

Sets are sparse except for one contiguous dense run.  Paper shape: in
the mixed-density middle the composite layout beats both uint and
bitset, because it stores the dense run as bitset blocks and the
sparse remainder as uint blocks.
"""

from repro.graphs import set_with_dense_region
from repro.sets import BitSet, BlockedSet, OpCounter, UintSet, intersect

TOTAL = 40_000
RANGE = 2_000_000


def ops(fraction, layout):
    a = layout(set_with_dense_region(TOTAL, RANGE, fraction, seed=1))
    b = layout(set_with_dense_region(TOTAL, RANGE, fraction, seed=2))
    counter = OpCounter()
    intersect(a, b, counter)
    return counter.total_ops


def test_composite_wins_on_mixed_density():
    mixed = 0.6
    assert ops(mixed, BlockedSet) < ops(mixed, UintSet)
    assert ops(mixed, BlockedSet) < ops(mixed, BitSet)
