"""Counter attribution: each kernel must charge under its own name.

The benchmark harness attributes work per algorithm through
``OpCounter.by_algorithm``; misattribution would silently corrupt the
figures, so pin the mapping here.
"""

import numpy as np
import pytest

from repro.sets import (BitSet, BlockedSet, OpCounter, PShortSet, UintSet,
                        VariantSet, intersect)


def sets(a=(1, 2, 3, 300), b=(2, 3, 4, 300)):
    return list(a), list(b)


CASES = [
    (UintSet, UintSet, {"algorithm": "shuffling"}, "shuffling"),
    (UintSet, UintSet, {"algorithm": "v1"}, "v1"),
    (UintSet, UintSet, {"algorithm": "galloping"}, "galloping"),
    (UintSet, UintSet, {"algorithm": "simd_galloping"}, "simd_galloping"),
    (UintSet, UintSet, {"algorithm": "bmiss"}, "bmiss"),
    (UintSet, UintSet, {"simd": False}, "scalar_merge"),
    (BitSet, BitSet, {}, "bitset_and"),
    (UintSet, BitSet, {}, "uint_bitset"),
    (PShortSet, PShortSet, {}, "pshort"),
    (BlockedSet, BlockedSet, {}, "block_offsets"),
    (VariantSet, UintSet, {}, "variant_decode"),
]


@pytest.mark.parametrize("layout_a,layout_b,kwargs,expected", CASES)
def test_attribution(layout_a, layout_b, kwargs, expected):
    a, b = sets()
    counter = OpCounter()
    intersect(layout_a(a), layout_b(b), counter, **kwargs)
    assert expected in counter.by_algorithm, counter.by_algorithm


def test_scalar_galloping_attribution():
    counter = OpCounter()
    small = UintSet([5])
    large = UintSet(range(0, 4000, 2))
    intersect(small, large, counter, simd=False)  # ratio >> 32
    assert "scalar_galloping" in counter.by_algorithm


def test_adaptive_dispatch_attribution_matches_choice():
    counter = OpCounter()
    small = UintSet([1, 2])
    large = UintSet(np.arange(0, 10000, 3))
    intersect(small, large, counter)
    assert list(counter.by_algorithm) == ["simd_galloping"]
    counter2 = OpCounter()
    intersect(UintSet([1, 2, 3]), UintSet([2, 3, 4]), counter2)
    assert list(counter2.by_algorithm) == ["shuffling"]
