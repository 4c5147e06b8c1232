"""Admission control: shed or queue work when SLO compliance is at risk.

The PIQL philosophy is *success-tolerant* scaling: it is better to refuse a
little work than to let every request's latency blow past the SLO.  The
controller here is a small proportional controller driven by the
:class:`~repro.serving.monitor.SLOMonitor`'s live quantile:

* every control tick, :meth:`update` compares the observed SLO quantile to
  the objective.  While the quantile is above the objective the shed
  probability ramps up (proportionally to how far above); once it falls
  below a recovery threshold the probability decays back to zero
  (hysteresis, so the controller does not chatter);
* every arriving request calls :meth:`decide`, which returns ``ADMIT``,
  ``QUEUE`` (admit, but the request will wait behind a backlog) or ``SHED``.
  Requests are shed probabilistically at the current shed probability, and
  unconditionally when the dispatch backlog exceeds
  :data:`QUEUE_LIMIT_SECONDS` — an overloaded system must not build an
  unbounded queue.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .monitor import MIN_SAMPLES, SLOMonitor


#: Per-tick increase of shed probability per unit of relative overshoot
#: (observed quantile / SLO latency − 1).
GAIN = 0.25
#: Per-tick decrease once the quantile is back under ``RECOVER_FRACTION`` of
#: the SLO latency.
DECAY = 0.10
#: Shed probability never exceeds this (some traffic always gets through).
MAX_SHED_PROBABILITY = 0.95
#: Quantile must fall below ``RECOVER_FRACTION * slo.latency`` to decay.
RECOVER_FRACTION = 0.8
#: Dispatch backlog (seconds of queued work) beyond which requests are shed
#: outright instead of queued.
QUEUE_LIMIT_SECONDS = 2.0
#: Seed of the probabilistic shedding draws.
ADMISSION_SEED = 17


class AdmissionDecision(enum.Enum):
    ADMIT = "admit"
    QUEUE = "queue"
    SHED = "shed"


@dataclass
class AdmissionCounters:
    admitted: int = 0
    queued: int = 0
    shed: int = 0


class AdmissionController:
    """Probabilistic load shedding driven by the observed SLO quantile (and
    pre-armed by the burn-rate alerter, :meth:`pre_arm`)."""

    def __init__(self, monitor: SLOMonitor):
        self.monitor = monitor
        self.counters = AdmissionCounters()
        self.shed_probability = 0.0
        self._rng = random.Random(ADMISSION_SEED)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def update(self, now: float) -> float:
        """One control tick; returns the new shed probability."""
        slo = self.monitor.slo
        if self.monitor.total_observations < MIN_SAMPLES:
            # Cold start: too little observed yet, so a pre-armed shed
            # probability must hold rather than decay away before the
            # violation can even be measured.
            return self.shed_probability
        if self.monitor.recent_count(now) >= MIN_SAMPLES:
            observed = self.monitor.percentile(slo.quantile, now)
            ratio = observed / slo.latency_seconds
            if ratio > 1.0:
                self.shed_probability = min(
                    MAX_SHED_PROBABILITY,
                    self.shed_probability + GAIN * (ratio - 1.0),
                )
                return self.shed_probability
            if ratio > RECOVER_FRACTION:
                # In the hysteresis band: hold steady.
                return self.shed_probability
        self.shed_probability = max(0.0, self.shed_probability - DECAY)
        return self.shed_probability

    def pre_arm(self, probability: float) -> float:
        """Seed a shed probability ahead of a measured violation.

        Called by the burn-rate alerter when the error budget starts
        burning faster than plan: a small probabilistic shed begins *before*
        the monitor's own quantile check trips, trading a sliver of traffic
        for a softer landing.  Never lowers an already-higher probability
        (the proportional controller stays in charge of recovery), and is
        clamped to the configured maximum.
        """
        self.shed_probability = min(
            MAX_SHED_PROBABILITY, max(self.shed_probability, probability)
        )
        return self.shed_probability

    # ------------------------------------------------------------------
    # Per-request decisions
    # ------------------------------------------------------------------
    def decide(self, now: float, backlog_seconds: float = 0.0) -> AdmissionDecision:
        """Decide the fate of one request arriving at ``now``.

        ``backlog_seconds`` is how long the request would wait before an
        application server even starts it (dispatch queue depth).
        """
        if backlog_seconds > QUEUE_LIMIT_SECONDS:
            self.counters.shed += 1
            return AdmissionDecision.SHED
        if self.shed_probability > 0.0 and self._rng.random() < self.shed_probability:
            self.counters.shed += 1
            return AdmissionDecision.SHED
        if backlog_seconds > 0.0:
            self.counters.queued += 1
            return AdmissionDecision.QUEUE
        self.counters.admitted += 1
        return AdmissionDecision.ADMIT
