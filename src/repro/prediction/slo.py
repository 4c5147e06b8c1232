"""Service Level Objectives and compliance predictions (Sections 6.2/6.3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import PredictionError


@dataclass(frozen=True)
class ServiceLevelObjective:
    """An SLO of the form used throughout the paper.

    "99% of queries during each ten-minute interval should complete in under
    500 ms" becomes ``ServiceLevelObjective(quantile=0.99,
    latency_seconds=0.5, interval_seconds=600)``.
    """

    quantile: float = 0.99
    latency_seconds: float = 0.5
    interval_seconds: float = 600.0

    def __post_init__(self) -> None:
        if not (0.0 < self.quantile < 1.0):
            raise PredictionError("SLO quantile must be in (0, 1)")
        if self.latency_seconds <= 0:
            raise PredictionError("SLO latency must be positive")
        if self.interval_seconds <= 0:
            raise PredictionError("SLO interval must be positive")

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1000.0


@dataclass
class SLOPrediction:
    """Predicted per-interval high-quantile latencies for one query.

    Rather than a point estimate, the model produces one predicted
    high-quantile latency per observed SLO interval (Figure 5(c)); this
    distribution captures the volatility of the cloud and lets a developer
    reason about the *risk* of violating the SLO over time.
    """

    quantile: float
    interval_quantiles_seconds: List[float]

    def __post_init__(self) -> None:
        if not self.interval_quantiles_seconds:
            raise PredictionError("prediction needs at least one interval")

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    @property
    def max_seconds(self) -> float:
        """The most conservative (largest) per-interval prediction.

        Table 1 of the paper reports this value ("we report the max
        99th-percentile value").
        """
        return max(self.interval_quantiles_seconds)

    @property
    def max_ms(self) -> float:
        return self.max_seconds * 1000.0

    def percentile_across_intervals(self, fraction: float) -> float:
        """The ``fraction`` quantile of the per-interval predictions.

        For example the 90th percentile of the interval distribution tells
        the developer that roughly 10% of intervals may exceed that value
        (Section 6.3).
        """
        if not (0.0 < fraction <= 1.0):
            raise PredictionError("fraction must be in (0, 1]")
        ordered = sorted(self.interval_quantiles_seconds)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    # ------------------------------------------------------------------
    # Compliance
    # ------------------------------------------------------------------
    def violation_risk(self, slo: ServiceLevelObjective) -> float:
        """Fraction of intervals whose predicted quantile exceeds the SLO."""
        over = sum(
            1 for value in self.interval_quantiles_seconds
            if value > slo.latency_seconds
        )
        return over / len(self.interval_quantiles_seconds)

    def meets(self, slo: ServiceLevelObjective) -> bool:
        """Whether no interval's predicted quantile violates ``slo``."""
        return self.violation_risk(slo) == 0.0


def observed_interval_quantiles(
    samples_by_interval: Sequence[Sequence[float]], quantile: float
) -> List[float]:
    """Per-interval empirical quantiles of observed latencies.

    Used to compute the "actual" column of Table 1 with exactly the same
    interval/percentile methodology as the predictions.
    """
    quantiles: List[float] = []
    for samples in samples_by_interval:
        if not samples:
            continue
        ordered = sorted(samples)
        index = min(int(quantile * len(ordered)), len(ordered) - 1)
        quantiles.append(ordered[index])
    if not quantiles:
        raise PredictionError("no observations to compute quantiles from")
    return quantiles
