"""SLO monitoring over sliding windows (the serving tier's eyes).

The paper states SLOs over fixed intervals — "99% of queries during each
ten-minute interval complete within 500 ms" — and Figures 8–11 compare a
prediction of those per-interval quantiles against observation.  The monitor
implements both views:

* **interval reports** bin every observation by the SLO's interval index and
  report p50 / p99 / compliance per interval (the paper's methodology), and
* a short **control window** (a sliding deque of recent observations) that
  gives the admission controller and autoscaler a responsive live signal.

Observed quantiles are set against the offline
:class:`~repro.prediction.slo.SLOPrediction` where Table 1 is computed, in
:mod:`repro.bench.prediction_experiment`.

The monitor keeps response times only.  A serving run's burn-rate alerts
stay with the :class:`~repro.obs.slo.BurnRateAlerter` that raised them and
its bound violations with the :class:`~repro.obs.audit.BoundAuditor` that
observed them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from ..prediction.slo import ServiceLevelObjective
from ..stats import nearest_rank_percentile


@dataclass(frozen=True)
class WindowReport:
    """Latency summary of one completed SLO interval."""

    index: int
    start_seconds: float
    count: int
    p50_seconds: float
    quantile_seconds: float
    compliance: float
    violated: bool


#: The sliding window the live signals (percentiles, recent compliance)
#: read, and the observations the admission controller waits for before
#: it trusts them.
CONTROL_WINDOW_SECONDS = 5.0
MIN_SAMPLES = 20


class SLOMonitor:
    """Tracks response-time observations against a service level objective."""

    def __init__(self, slo: ServiceLevelObjective):
        self.slo = slo
        self.total_observations = 0
        self.total_compliant = 0
        #: Interactions that failed outright (no response to time at all).
        #: Kept separate from ``total_observations`` so latency percentiles
        #: and :attr:`overall_compliance` stay statements about *completed*
        #: requests (availability covers failures), while the scraped SLO
        #: error-budget counters include them — a failed request burns
        #: budget exactly like an over-latency one.
        self.total_failed = 0
        self._samples_by_interval: Dict[int, List[float]] = {}
        self._recent: Deque[Tuple[float, float]] = deque()
        #: Observations in :attr:`_recent` inside the SLO latency, kept
        #: as the window moves so a scrape reads it in O(1).
        self._recent_compliant = 0
        self._latest = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, now: float, latency_seconds: float) -> None:
        """Record one completed request's response time at time ``now``.

        Interval binning is by ``now``'s own interval index, so it is
        correct even if observations arrive slightly out of time order
        (drivers deliver them through kernel events, but robustness here is
        cheap).
        """
        index = int(now // self.slo.interval_seconds)
        self._samples_by_interval.setdefault(index, []).append(latency_seconds)
        self.total_observations += 1
        if latency_seconds <= self.slo.latency_seconds:
            self.total_compliant += 1
            self._recent_compliant += 1
        self._recent.append((now, latency_seconds))
        self._trim_recent(now)

    def record_failure(self, now: float) -> None:
        """Record one interaction that failed outright at time ``now``.

        There is no latency to bin, so failures never enter the interval
        reports or the control window; they only count against the error
        budget (via the scraped ``serving.slo.total`` counter), which is
        what lets burn-rate alerting see a quorum-loss window where every
        request dies quickly instead of slowly.
        """
        self.total_failed += 1

    def _summarise(self, index: int, samples: List[float]) -> WindowReport:
        quantile = nearest_rank_percentile(samples, self.slo.quantile)
        compliant = sum(1 for s in samples if s <= self.slo.latency_seconds)
        return WindowReport(
            index=index,
            start_seconds=index * self.slo.interval_seconds,
            count=len(samples),
            p50_seconds=nearest_rank_percentile(samples, 0.50),
            quantile_seconds=quantile,
            compliance=compliant / len(samples),
            violated=quantile > self.slo.latency_seconds,
        )

    def _trim_recent(self, now: float) -> None:
        # The horizon only moves forward: a single early-recorded straggler
        # (an observation stamped ahead of its siblings) must not evict the
        # control window that the admission controller is acting on.
        self._latest = max(self._latest, now)
        horizon = self._latest - CONTROL_WINDOW_SECONDS
        recent = self._recent
        while recent and recent[0][0] < horizon:
            if recent.popleft()[1] <= self.slo.latency_seconds:
                self._recent_compliant -= 1

    # ------------------------------------------------------------------
    # Live control signals
    # ------------------------------------------------------------------
    def recent_count(self, now: float) -> int:
        self._trim_recent(now)
        return len(self._recent)

    def percentile(self, fraction: float, now: float) -> float:
        """Nearest-rank percentile over the recent control window."""
        self._trim_recent(now)
        if not self._recent:
            raise ValueError("no recent observations")
        return nearest_rank_percentile(
            [latency for _, latency in self._recent], fraction
        )

    def recent_compliance(self, now: float) -> float:
        """Fraction of recent observations inside the SLO latency."""
        self._trim_recent(now)
        if not self._recent:
            return 1.0
        return self._recent_compliant / len(self._recent)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def finalize(self) -> List[WindowReport]:
        """Summarise every interval observed so far, in interval order."""
        return [
            self._summarise(index, samples)
            for index, samples in sorted(self._samples_by_interval.items())
        ]

    @property
    def overall_compliance(self) -> float:
        if self.total_observations == 0:
            return 1.0
        return self.total_compliant / self.total_observations
