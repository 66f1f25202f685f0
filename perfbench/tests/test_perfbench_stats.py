import pytest

import stats


@pytest.mark.parametrize("n", [11, 12, 20, 25, 57, 100, 1000])
def test_tail_is_highest_rank_with_ten_beyond(n):
    samples = [float((7 * i) % n) for i in range(n)]  # 0..n-1, shuffled
    value, pct, beyond = stats.tail(samples)
    assert value == n - 11
    assert beyond == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # one rank higher would leave only nine samples beyond
    assert sum(1 for x in samples if x > value + 1) == 9


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_without_enough_samples_reports_max_and_zero_beyond(n):
    value, pct, beyond = stats.tail([float(i) for i in range(n)])
    assert (value, pct, beyond) == (n - 1, 100.0, 0)


def test_tail_steps_below_ties():
    samples = [1.0] * 15 + [2.0] * 12
    # the 17th smallest (2.0) has nothing strictly beyond it; 1.0 has twelve
    assert stats.tail(samples) == (1.0, pytest.approx(100.0 * 15 / 27), 12)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        stats.tail([])


def test_relative_iqr():
    assert stats.relative_iqr([10.0] * 5) == 0.0
    values = [float(v) for v in range(1, 10)]
    # exclusive quartiles of 1..9 are 2.5 and 7.5 around the median 5
    assert stats.relative_iqr(values) == pytest.approx(1.0)
