"""Latency histograms (Section 6.1).

The prediction framework represents each operator's response-time
distribution as an empirical histogram with millisecond-resolution bins —
"each histogram can be well-represented with on the order of a thousand
bins" and stored in a kilobyte or two.  Combining operators along a query
plan sums their latencies, i.e. convolves their distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

import numpy as np

from ..errors import PredictionError


@dataclass
class LatencyHistogram:
    """An empirical latency distribution with fixed-width bins.

    Latencies are recorded in **seconds**; the default bin width of one
    millisecond matches the paper's resolution argument.
    """

    bin_width_seconds: float = 0.001
    max_latency_seconds: float = 10.0
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.bin_width_seconds <= 0:
            raise PredictionError("bin width must be positive")
        num_bins = int(np.ceil(self.max_latency_seconds / self.bin_width_seconds)) + 1
        if self.counts is None:
            self.counts = np.zeros(num_bins, dtype=np.float64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.float64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float],
        bin_width_seconds: float = 0.001,
        max_latency_seconds: float = 10.0,
    ) -> "LatencyHistogram":
        histogram = cls(
            bin_width_seconds=bin_width_seconds,
            max_latency_seconds=max_latency_seconds,
        )
        for sample in samples:
            histogram.add(sample)
        return histogram

    def add(self, latency_seconds: float, weight: float = 1.0) -> None:
        """Record one observation."""
        if latency_seconds < 0:
            raise PredictionError("latency cannot be negative")
        index = min(
            int(latency_seconds / self.bin_width_seconds), len(self.counts) - 1
        )
        self.counts[index] += weight

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Pool the observations of two histograms (same binning required)."""
        self._check_compatible(other)
        merged = LatencyHistogram(
            bin_width_seconds=self.bin_width_seconds,
            max_latency_seconds=self.max_latency_seconds,
            counts=self.counts + other.counts,
        )
        return merged

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def is_empty(self) -> bool:
        return self.total == 0

    def pmf(self) -> np.ndarray:
        """Normalised probability mass function over the bins."""
        if self.is_empty:
            raise PredictionError("cannot normalise an empty histogram")
        return self.counts / self.counts.sum()

    def mean(self) -> float:
        """Mean latency in seconds."""
        centers = self._bin_centers()
        return float(np.dot(self.pmf(), centers))

    def quantile(self, q: float) -> float:
        """The ``q`` quantile (e.g. 0.99) of the latency in seconds."""
        if not (0.0 < q <= 1.0):
            raise PredictionError(f"quantile must be in (0, 1], got {q}")
        cumulative = np.cumsum(self.pmf())
        index = int(np.searchsorted(cumulative, q, side="left"))
        index = min(index, len(self.counts) - 1)
        # The final bin is an overflow bucket: its centre lies half a bin
        # past max_latency, so clamp to keep quantiles inside the range.
        return float(min(self._bin_centers()[index], self.max_latency_seconds))

    def _bin_centers(self) -> np.ndarray:
        return (np.arange(len(self.counts)) + 0.5) * self.bin_width_seconds

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def convolve(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Distribution of the *sum* of two independent latencies.

        This is how serial plan sections compose (Section 6.2): the total
        latency of two blocking operators is the sum of their latencies.
        """
        self._check_compatible(other)
        # Trim trailing empty bins before convolving: latencies live in the
        # first few hundred bins of a ten-second histogram, so this turns an
        # O(N^2) convolution over ~10k bins into one over the occupied range.
        pmf_a = _trim(self.pmf())
        pmf_b = _trim(other.pmf())
        pmf = np.convolve(pmf_a, pmf_b)
        pmf = self._truncate(pmf)
        return LatencyHistogram(
            bin_width_seconds=self.bin_width_seconds,
            max_latency_seconds=self.max_latency_seconds,
            counts=pmf,
        )

    def _truncate(self, pmf: np.ndarray) -> np.ndarray:
        if len(pmf) <= len(self.counts):
            out = np.zeros(len(self.counts))
            out[: len(pmf)] = pmf
            return out
        out = pmf[: len(self.counts)].copy()
        out[-1] += pmf[len(self.counts):].sum()
        return out

    def _check_compatible(self, other: "LatencyHistogram") -> None:
        if (
            abs(self.bin_width_seconds - other.bin_width_seconds) > 1e-12
            or len(self.counts) != len(other.counts)
        ):
            raise PredictionError("histograms have incompatible binning")


def _trim(pmf: np.ndarray) -> np.ndarray:
    """Drop trailing zero bins (keeping at least one bin)."""
    nonzero = np.nonzero(pmf)[0]
    if len(nonzero) == 0:
        return pmf[:1]
    return pmf[: nonzero[-1] + 1]


def convolve_all(histograms: Sequence[LatencyHistogram]) -> LatencyHistogram:
    """Convolve a list of histograms (the serial composition of a plan)."""
    if not histograms:
        raise PredictionError("cannot combine zero histograms")
    result = histograms[0]
    for histogram in histograms[1:]:
        result = result.convolve(histogram)
    return result
