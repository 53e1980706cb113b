import statistics

import pytest

from stats import quartile_spread, tail


def test_tail_needs_twenty_samples():
    assert tail(range(19)) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(k) for k in range(1, 21)]
    value, percentile, n = tail(reversed(samples))
    assert (value, percentile, n) == (10.0, 50.0, 20)
    value, percentile, n = tail([float(k) for k in range(1, 101)])
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in range(1, 101)) == 10


def test_tail_percentile_rises_with_sample_count_up_to_the_cap():
    assert tail([float(k) for k in range(1, 201)]) == (190.0, 95.0, 200)
    assert tail([float(k) for k in range(1, 1001)]) == (950.0, 95.0, 1000)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)
