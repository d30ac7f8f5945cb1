"""The quiet-decile estimator against the noise it was chosen for."""

import random

from benchmarks.e2e import stats


def contended_series(base=1.0, blocks=30, seed=0):
    """Blocks of ``base`` seconds with 1% jitter; a neighbour makes
    half the run (two stretches) 30% slower."""
    rng = random.Random(seed)
    series = []
    for index in range(blocks):
        slow = 5 <= index < 13 or 20 <= index < 27
        series.append(base * (1.3 if slow else 1.0)
                      * (1.0 + rng.uniform(0.0, 0.01)))
    return series


def test_p10_recovers_the_quiet_cost_where_the_median_does_not():
    for seed in range(20):
        series = contended_series(seed=seed)
        assert abs(stats.quiet_decile(series) - 1.0) < 0.03
        assert stats.percentile(series, 0.5) - 1.0 > 0.03


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert stats.percentile([1.0, 2.0], 0.25) == 1.25
    assert stats.percentile([7.0], 0.1) == 7.0


def test_quiet_share_flags_a_p10_resting_on_lucky_blocks():
    steady = stats.summarize(contended_series())
    assert steady["quiet_share"] >= 0.4 and not steady["noisy"]
    # two lucky blocks far below a scattered rest: the p10 falls in
    # the gap and nothing sits near it
    lucky = [0.5, 0.55] + [1.0 + 0.2 * i for i in range(28)]
    assert stats.summarize(lucky)["noisy"]


def test_relative_gap_is_signed_and_relative_to_the_first():
    assert stats.relative_gap(100.0, 108.0) == 0.08
    assert stats.relative_gap(100.0, 95.0) == -0.05
