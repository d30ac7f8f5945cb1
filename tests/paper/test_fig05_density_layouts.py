"""Figure 5: uint vs bitset intersection cost across densities.

Two sets of equal cardinality over a fixed 1M-value range.  Paper
shape: uint wins at low density, bitset wins past a density crossover
(its 256-value-per-op registers amortize once blocks fill up).
"""

from repro.graphs import synthetic_set
from repro.sets import BitSet, OpCounter, UintSet, intersect

RANGE = 1_000_000


def ops(density, layout):
    a = layout(synthetic_set(int(RANGE * density), RANGE, seed=1))
    b = layout(synthetic_set(int(RANGE * density), RANGE, seed=2))
    counter = OpCounter()
    intersect(a, b, counter)
    return counter.total_ops


def test_uint_wins_sparse_bitset_wins_dense():
    assert ops(0.0005, UintSet) < ops(0.0005, BitSet)
    assert ops(0.5, BitSet) < ops(0.5, UintSet)
