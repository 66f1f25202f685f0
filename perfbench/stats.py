"""Order statistics used by the benchmark's reports (standard library only)."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, n_beyond)``.  The percentile uses the
    nearest-rank convention: the k-th smallest of n samples is the
    ``100 * k / n`` percentile.  With too few samples for any such rank
    the maximum is returned with percentile 100 and the honest count of
    samples beyond it (0), so a short run never claims a tail it lacks.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("tail of an empty sample")
    n = len(xs)
    for k in range(n - TAIL_BEYOND, 0, -1):
        above = sum(1 for x in xs if x > xs[k - 1])
        if above >= TAIL_BEYOND:
            return xs[k - 1], 100.0 * k / n, above
    return xs[-1], 100.0, 0


def relative_iqr(values):
    """Distance between the first and third quartile as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (exclusive method), the
    definition the benchmark's steadiness check is stated in.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
