"""Order statistics of the runner's timings."""

from __future__ import annotations

from typing import Sequence

#: tail percentiles a timing may be reported at, lowest first
TAIL_CANDIDATES = (90.0, 99.0, 99.9)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between the two
    nearest ranks (NumPy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or ``None`` when even p90 lacks them."""
    best = None
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best
