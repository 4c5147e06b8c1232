"""Multi-window SLO burn-rate alerting over telemetry counters.

An SLO like "99% of queries complete within 500 ms" grants an *error
budget*: 1% of requests may miss.  The **burn rate** of a window is how
fast that budget is being consumed relative to plan::

    burn = (bad fraction over the window) / (1 - slo.quantile)

``burn == 1`` spends the budget exactly on schedule; ``burn == 10`` spends
it ten times too fast.  Alerting on a single window forces a bad trade —
short windows flap on noise, long windows page hours late — so each alert
rule here pairs a **fast** and a **slow** window (the multi-window,
multi-burn-rate pattern): the alert fires only when *both* exceed the
threshold (the problem is real *and* still happening) and clears as soon as
the fast window drops back under (recovery is visible within seconds, even
while the slow window still remembers the incident).

The alerter is a pure reader of the telemetry store's cumulative
``serving.slo.total`` / ``serving.slo.good`` counters — windowed bad
fractions come from :meth:`~repro.obs.timeseries.TimeSeriesStore.counter_delta`
— so it needs no hook into the request path.  It keeps the run's alert
timeline itself (:attr:`BurnRateAlerter.alerts`, read by the dashboard,
the export and incident reports) and on firing can **pre-arm** the
admission controller: seeding a small shed probability while the budget is
burning, before the monitor's own quantile check would react.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..prediction.slo import ServiceLevelObjective
from .telemetry import SLO_GOOD_METRIC, SLO_TOTAL_METRIC
from .timeseries import TimeSeriesStore


@dataclass(frozen=True)
class BurnRateRule:
    """One fast/slow window pair with its burn-rate threshold."""

    fast_seconds: float
    slow_seconds: float
    threshold: float

    def __post_init__(self) -> None:
        if self.fast_seconds <= 0 or self.slow_seconds <= 0:
            raise ValueError("burn-rate windows must be positive")
        if self.fast_seconds > self.slow_seconds:
            raise ValueError("fast window must not exceed the slow window")
        if self.threshold <= 0:
            raise ValueError("burn-rate threshold must be positive")

    @property
    def name(self) -> str:
        return f"burn[{self.fast_seconds:g}s/{self.slow_seconds:g}s]x{self.threshold:g}"


#: Default rule ladder, scaled for simulated serving runs of tens of
#: seconds (production ladders use 5m/1h and 30m/6h; the shape is what
#: matters): a fast pair that pages on sharp budget burn and a slower pair
#: that catches sustained low-grade burn.
DEFAULT_RULES: Sequence[BurnRateRule] = (
    BurnRateRule(fast_seconds=2.0, slow_seconds=10.0, threshold=10.0),
    BurnRateRule(fast_seconds=5.0, slow_seconds=25.0, threshold=4.0),
)

#: Requests a rule's fast window must hold before the rule may fire (cold
#: starts and idle periods must not page).
MIN_EVENTS = 10
#: Shed probability seeded into the admission controller on firing.
PRE_ARM_PROBABILITY = 0.1


@dataclass
class SLOAlert:
    """One firing (and possibly cleared) burn-rate alert."""

    rule: BurnRateRule
    fired_at: float
    fast_burn: float
    slow_burn: float
    cleared_at: Optional[float] = None
    peak_fast_burn: float = 0.0

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    @property
    def duration_seconds(self) -> float:
        return (self.cleared_at - self.fired_at) if self.cleared_at is not None else 0.0

    def describe(self) -> str:
        state = (
            "ACTIVE"
            if self.active
            else f"cleared @ {self.cleared_at:.2f}s"
        )
        return (
            f"{self.rule.name} fired @ {self.fired_at:.2f}s "
            f"(fast {self.fast_burn:.1f}x, slow {self.slow_burn:.1f}x, "
            f"peak {self.peak_fast_burn:.1f}x) {state}"
        )


class BurnRateAlerter:
    """Evaluates burn-rate rules against scraped SLO counters.

    Parameters
    ----------
    store:
        Telemetry store holding the cumulative total/good counters.
    slo:
        The objective whose error budget is being tracked.
    rules:
        Fast/slow window pairs; defaults to :data:`DEFAULT_RULES`.  Each
        slow window must fit in the store's ring: at most
        ``(capacity - 1) * resolution_seconds`` (:class:`ValueError`
        otherwise).
    admission:
        Optional admission controller to pre-arm (with
        :data:`PRE_ARM_PROBABILITY`) while burning.

    A rule fires only once its fast window holds :data:`MIN_EVENTS`
    requests.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        slo: ServiceLevelObjective,
        rules: Optional[Sequence[BurnRateRule]] = None,
        admission: Optional[object] = None,
    ):
        self.store = store
        self.slo = slo
        self.rules: List[BurnRateRule] = list(rules if rules is not None else DEFAULT_RULES)
        if not self.rules:
            raise ValueError("need at least one burn-rate rule")
        # The ring holds the bucket ``now`` falls in and ``capacity - 1``
        # before it; a window reaching further back could open in a bucket
        # already wrapped over, and ``counter_delta`` would quietly read a
        # shorter window from the oldest bucket left.
        reach = (store.capacity - 1) * store.resolution_seconds
        for rule in self.rules:
            if rule.slow_seconds > reach:
                raise ValueError(
                    f"{rule.name}: a {rule.slow_seconds:g}s window reaches past "
                    f"the {reach:g}s the telemetry store holds"
                )
        self.admission = admission
        #: Every alert ever fired, in firing order (active ones included).
        self.alerts: List[SLOAlert] = []
        self._active: dict = {}

    # ------------------------------------------------------------------
    # Burn-rate math
    # ------------------------------------------------------------------
    @property
    def error_budget(self) -> float:
        return 1.0 - self.slo.quantile

    def window_events(self, now: float, window_seconds: float) -> float:
        return self.store.counter_delta(
            SLO_TOTAL_METRIC, now - window_seconds, now
        )

    def burn_rate(self, now: float, window_seconds: float) -> float:
        """Budget-consumption speed over the trailing window (0 when idle)."""
        total = self.window_events(now, window_seconds)
        if total <= 0:
            return 0.0
        good = self.store.counter_delta(
            SLO_GOOD_METRIC, now - window_seconds, now
        )
        bad_fraction = max(0.0, total - good) / total
        return bad_fraction / self.error_budget

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> List[SLOAlert]:
        """Step every rule at ``now``; returns alerts that newly fired."""
        fired: List[SLOAlert] = []
        for rule in self.rules:
            fast = self.burn_rate(now, rule.fast_seconds)
            slow = self.burn_rate(now, rule.slow_seconds)
            active = self._active.get(rule.name)
            if active is not None:
                active.peak_fast_burn = max(active.peak_fast_burn, fast)
                if fast < rule.threshold:
                    active.cleared_at = now
                    del self._active[rule.name]
                continue
            if (
                fast >= rule.threshold
                and slow >= rule.threshold
                and self.window_events(now, rule.fast_seconds) >= MIN_EVENTS
            ):
                alert = SLOAlert(
                    rule=rule,
                    fired_at=now,
                    fast_burn=fast,
                    slow_burn=slow,
                    peak_fast_burn=fast,
                )
                self.alerts.append(alert)
                self._active[rule.name] = alert
                fired.append(alert)
                if self.admission is not None:
                    pre_arm = getattr(self.admission, "pre_arm", None)
                    if pre_arm is not None:
                        pre_arm(PRE_ARM_PROBABILITY)
        return fired
