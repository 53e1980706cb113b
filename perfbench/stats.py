"""Order statistics shared by the benchmark run and the sweep over seeds."""

from __future__ import annotations

import math
import statistics

#: samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: highest tail percentile reported.  On a 2-vCPU virtual machine shared
#: with other guests the slowest 5% of 2 ms operations follow the host, not
#: the program: p99 and p99.9 of identical runs differed by 30-60%.
TAIL_MAX_PERCENTILE = 95


def tail(samples) -> tuple[float, float, int] | None:
    """Highest percentile, up to ``TAIL_MAX_PERCENTILE``, with at least
    ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample count)`` by the nearest-rank rule.
    Below 200 samples the value is the ``TAIL_BEYOND + 1``-th largest, so
    exactly ``TAIL_BEYOND`` samples rank above it.  With fewer than
    ``2 * TAIL_BEYOND`` samples that would sit below the median, so the
    tail is omitted (``None``).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = min(n - TAIL_BEYOND, math.ceil(TAIL_MAX_PERCENTILE * n / 100))
    return ordered[rank - 1], 100.0 * rank / n, n


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
