"""Figure 10: uint algorithms vs cardinality ratio (the 32:1 crossover).

Fixed 1M range, one set pinned at 64 values, the other swept upward.
Paper shape: shuffling wins while cardinalities are similar; galloping
takes over past the ~32:1 ratio, by >5x at extreme skew — exactly the
dispatch rule of Algorithm 2.
"""

from repro.graphs import synthetic_set
from repro.sets import OpCounter, UintSet, intersect

RANGE = 1_000_000
SMALL = 64


def pair(ratio):
    a = UintSet(synthetic_set(SMALL, RANGE, seed=5))
    b = UintSet(synthetic_set(SMALL * ratio, RANGE, seed=6))
    return a, b


def model_ops(ratio, algorithm):
    a, b = pair(ratio)
    counter = OpCounter()
    intersect(a, b, counter, algorithm=algorithm)
    return counter.total_ops


def test_crossover_at_32():
    assert model_ops(1, "shuffling") < model_ops(1, "simd_galloping")
    assert model_ops(8, "shuffling") < model_ops(8, "simd_galloping")
    assert model_ops(256, "simd_galloping") < model_ops(256, "shuffling")
    assert model_ops(2048, "simd_galloping") * 5 \
        < model_ops(2048, "shuffling")


def test_hybrid_tracks_the_winner():
    """Adaptive dispatch matches the better algorithm at both ends."""
    for ratio in (1, 2048):
        a, b = pair(ratio)
        counter = OpCounter()
        intersect(a, b, counter)  # adaptive
        best = min(model_ops(ratio, "shuffling"),
                   model_ops(ratio, "simd_galloping"))
        assert counter.total_ops <= best * 1.01
