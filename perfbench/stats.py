"""The tail percentile rule of the end-to-end report."""


def tail(values, beyond=10):
    """(value, percentile, count) of the highest percentile with enough jobs past it.

    Percentiles are nearest-rank: the P-th percentile of N sorted samples is
    sample ``ceil(P * N / 100)`` (1-based), which leaves ``N - ceil(P*N/100)``
    samples beyond it.  The chosen P is the largest integer percentile that
    leaves at least ``beyond`` samples past it.  With ``beyond`` or fewer
    samples no percentile qualifies, and the minimum (P = 0) is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    pct = max(0, (100 * (n - beyond)) // n)
    rank = max(1, -(-pct * n // 100))
    return xs[rank - 1], pct, n

