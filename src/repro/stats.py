"""Tiny shared statistics helpers (importable from every layer).

The nearest-rank percentile appears throughout the reproduction — client
stats, the benchmark reporting, the serving tier's SLO monitor, the
prediction's per-interval quantiles — and its
edge-case behaviour (empty samples, fraction domain) must be identical
everywhere, so there is exactly one implementation.
"""

from __future__ import annotations

from typing import Sequence


def nearest_rank_percentile(values: Sequence[float], fraction: float) -> float:
    """Empirical nearest-rank percentile of a sample.

    ``fraction`` is in ``(0, 1]``; e.g. ``0.99`` returns the value at or
    above 99% of the sample.
    """
    if not values:
        raise ValueError("cannot take the percentile of an empty sample")
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]
