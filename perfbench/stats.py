"""Item-time percentiles and the rule for reporting them."""

from __future__ import annotations

import math


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 100) of a nonempty sample."""
    if not values:
        raise ValueError("empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_defined(n, q, beyond=10):
    """Whether a sample of n leaves at least `beyond` samples above the
    q-th percentile, the rule for reporting that percentile at all."""
    return n - math.ceil(q / 100 * n) >= beyond
