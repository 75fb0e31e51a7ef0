"""Summary statistics shared by every workload.

A timing is reported as its median plus the highest percentile that
still has at least ``MIN_BEYOND`` samples beyond it, together with the
sample count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))      # ceil, at least 1
    return ordered[int(min(rank, len(ordered))) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that leaves at least
    :data:`MIN_BEYOND` of ``count`` samples strictly beyond it."""
    for pct in TAIL_PERCENTILES:
        if count * (100 - pct) / 100 >= MIN_BEYOND:
            return pct
    return None


def summarize(values) -> dict:
    """``{"n", "p50", "tail_pct", "tail"}`` of one timing sample.

    ``tail_pct``/``tail`` are None when the sample is too small for any
    tail percentile to have :data:`MIN_BEYOND` samples beyond it.
    """
    values = list(values)
    if not values:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_pct": pct,
        "tail": percentile(values, pct) if pct is not None else None,
    }

