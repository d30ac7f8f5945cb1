"""Estimators over per-block samples.

Every timing the benchmark gates on is a *per-block* statistic reduced
with the 10th percentile across blocks (the "quiet decile").  On a
shared machine the noise is a neighbour taking the core for seconds at
a time: it only ever makes a block slower, so the fast tail of the
block distribution estimates the quiet-machine cost while the median
follows the neighbour.  README.md has the measurement.
"""

#: A block within this share of the p10, either side, counts as "quiet".
QUIET_BAND = 0.05

#: Below this share of quiet blocks the p10 sits in a gap between a
#: lucky block or two and the rest, and the run is reported as noisy.
NOISY_BELOW = 0.1


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quiet_decile(values):
    """The gated estimator: p10 across blocks."""
    return percentile(values, 0.10)


def summarize(values):
    """p10 with the ungated context printed beside it."""
    p10 = quiet_decile(values)
    quiet = sum(1 for v in values if abs(v - p10) <= p10 * QUIET_BAND)
    share = quiet / len(values)
    return {
        "p10": p10,
        "median": percentile(values, 0.5),
        "p90": percentile(values, 0.9),
        "blocks": len(values),
        "quiet_share": share,
        "noisy": share < NOISY_BELOW,
    }


def relative_gap(first, second):
    """``second`` against ``first`` as a signed share of ``first``."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    return (second - first) / abs(first)
