"""Figure 11: uint algorithms vs density at fixed cardinality.

Both sets hold 2048 values; the range sweeps 10K → 1.2M (density sweeps
high → low).  Paper shape: shuffling-family algorithms lead across the
sweep at equal cardinalities; BMiss loses when ranges are small and
output cardinality high (too many prefix collisions).
"""

from repro.graphs import synthetic_set
from repro.sets import OpCounter, UintSet, intersect

CARDINALITY = 2048
RANGES = (10_000, 60_000, 300_000, 1_200_000)


def model_ops(value_range, algorithm):
    a = UintSet(synthetic_set(CARDINALITY, value_range, seed=7))
    b = UintSet(synthetic_set(CARDINALITY, value_range, seed=8))
    counter = OpCounter()
    intersect(a, b, counter, algorithm=algorithm)
    return counter.total_ops


def test_equal_cardinalities_favor_shuffling():
    for value_range in RANGES:
        assert model_ops(value_range, "shuffling") \
            <= model_ops(value_range, "galloping")


def test_bmiss_pays_for_dense_collisions():
    """BMiss's scalar confirmations grow with output cardinality: it
    costs more at high density than at low density."""
    assert model_ops(10_000, "bmiss") > model_ops(1_200_000, "bmiss")
