"""Figure 9: best layout combination vs density.

Every homogeneous layout pair is priced at each density over a fixed
1M range.  Paper shape: uint wins when sparse; bitset pairs win when
dense; the compressed layouts (variant/bitpacked) never win because of
their decode step (App. C.2.2).
"""

from repro.graphs import synthetic_set
from repro.sets import (BitPackedSet, BitSet, OpCounter, PShortSet,
                        UintSet, VariantSet, intersect)

RANGE = 1_000_000
LAYOUTS = {"uint": UintSet, "bitset": BitSet, "pshort": PShortSet,
           "variant": VariantSet, "bitpacked": BitPackedSet}


def ops_for(density, layout):
    a = layout(synthetic_set(int(RANGE * density), RANGE, seed=3))
    b = layout(synthetic_set(int(RANGE * density), RANGE, seed=4))
    counter = OpCounter()
    intersect(a, b, counter)
    return counter.total_ops


def test_winners_by_density():
    sparse = {name: ops_for(0.001, cls) for name, cls in LAYOUTS.items()}
    dense = {name: ops_for(0.5, cls) for name, cls in LAYOUTS.items()}
    assert min(sparse, key=sparse.get) in ("uint", "pshort")
    assert min(dense, key=dense.get) == "bitset"
    for table in (sparse, dense):
        best = min(table.values())
        assert table["variant"] > best
        assert table["bitpacked"] > best
