"""Unit tests for multi-window SLO burn-rate alerting.

``fixtures/slo_burn_timeline.json`` pins the alert timeline of one scripted
run (see :func:`scripted_timeline`); regenerate it only when a change is
*meant* to move when alerts fire::

    PYTHONPATH=src python tests/obs/test_slo_burn.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict

import pytest

from repro.obs.slo import (
    DEFAULT_RULES,
    MIN_EVENTS,
    PRE_ARM_PROBABILITY,
    BurnRateAlerter,
    BurnRateRule,
    SLOAlert,
)
from repro.obs.telemetry import SLO_GOOD_METRIC, SLO_TOTAL_METRIC
from repro.obs.timeseries import TimeSeriesStore
from repro.prediction.slo import ServiceLevelObjective
from repro.serving.simulator import TELEMETRY_INTERVAL_SECONDS


def make_slo(quantile=0.9):
    return ServiceLevelObjective(
        quantile=quantile, latency_seconds=0.1, interval_seconds=1.0
    )


def scrape(store, t, total, good):
    """Record one scrape tick of the cumulative SLO counters."""
    store.record(SLO_TOTAL_METRIC, float(total), t=t)
    store.record(SLO_GOOD_METRIC, float(good), t=t)


class TestBurnRateMath:
    def test_idle_store_burns_nothing(self):
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(store, make_slo())
        assert alerter.burn_rate(10.0, 5.0) == 0.0
        assert alerter.evaluate(10.0) == []

    def test_on_plan_burn_is_one(self):
        # Exactly the budgeted bad fraction (10% at quantile 0.9).
        store = TimeSeriesStore()
        scrape(store, 0.0, total=0, good=0)
        scrape(store, 10.0, total=100, good=90)
        alerter = BurnRateAlerter(store, make_slo(0.9))
        assert alerter.burn_rate(10.0, 10.0) == pytest.approx(1.0)

    def test_all_bad_burns_at_inverse_budget(self):
        store = TimeSeriesStore()
        scrape(store, 0.0, total=0, good=0)
        scrape(store, 10.0, total=100, good=0)
        alerter = BurnRateAlerter(store, make_slo(0.9))
        assert alerter.burn_rate(10.0, 10.0) == pytest.approx(10.0)

    def test_error_budget(self):
        store = TimeSeriesStore()
        assert BurnRateAlerter(store, make_slo(0.99)).error_budget == pytest.approx(0.01)


class TestFiringAndClearing:
    def rule(self):
        return BurnRateRule(fast_seconds=2.0, slow_seconds=6.0, threshold=5.0)

    def test_fires_when_both_windows_exceed(self):
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(
            store, make_slo(0.9), rules=[self.rule()]
        )
        # Healthy traffic for 6 s, then everything goes bad.
        total = good = 0
        for t in range(7):
            scrape(store, float(t), total, good)
            total += 20
            good += 20
        for t in range(7, 13):
            scrape(store, float(t), total, good)
            total += 20  # all new requests miss the SLO
        fired = alerter.evaluate(12.0)
        assert len(fired) == 1
        alert = fired[0]
        assert alert.active
        assert alert.fast_burn >= 5.0 and alert.slow_burn >= 5.0
        assert alerter.alerts == [alert]

    def test_fast_spike_alone_does_not_fire(self):
        # Slow window still healthy: a 2-second blip must not page.
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(
            store, make_slo(0.9), rules=[self.rule()]
        )
        total = good = 0
        for t in range(11):
            scrape(store, float(t), total, good)
            bad_tick = t >= 9
            total += 20
            good += 0 if bad_tick else 20
        assert alerter.burn_rate(10.0, 2.0) >= 5.0
        assert alerter.burn_rate(10.0, 6.0) < 5.0
        assert alerter.evaluate(10.0) == []

    def test_min_events_gates_cold_start(self):
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(
            store, make_slo(0.9), rules=[self.rule()]
        )
        # 100% bad, but one event short of MIN_EVENTS in the fast window.
        scrape(store, 0.0, total=0, good=0)
        scrape(store, 6.0, total=MIN_EVENTS - 1, good=0)
        assert alerter.evaluate(6.0) == []
        assert alerter.alerts == []

    def test_clears_when_fast_window_recovers(self):
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(
            store, make_slo(0.9), rules=[self.rule()]
        )
        total = good = 0
        for t in range(7):
            scrape(store, float(t), total, good)
            total += 20
        (alert,) = alerter.evaluate(6.0)
        assert alert.active
        # Recovery: new requests are all good; the fast window forgets the
        # incident within 2 s while the slow window still remembers it.
        for t in range(7, 10):
            scrape(store, float(t), total, good)
            total += 20
            good = total
        scrape(store, 10.0, total, good)
        assert alerter.evaluate(10.0) == []  # clearing is not a new firing
        assert not alert.active
        assert alert.cleared_at == 10.0
        assert alert.duration_seconds == pytest.approx(4.0)
        assert alerter.alerts == [alert]  # kept on the timeline, cleared
        assert "cleared" in alert.describe()

    def test_peak_burn_tracked_while_active(self):
        store = TimeSeriesStore()
        alerter = BurnRateAlerter(
            store, make_slo(0.9), rules=[self.rule()]
        )
        total = good = 0
        for t in range(13):
            scrape(store, float(t), total, good)
            total += 20  # bad from the first tick
        (alert,) = alerter.evaluate(6.0)
        first_fast = alert.fast_burn
        alerter.evaluate(12.0)
        assert alert.peak_fast_burn >= first_fast


class TestPreArm:
    class FakeAdmission:
        def __init__(self):
            self.armed = []

        def pre_arm(self, probability):
            self.armed.append(probability)

    def test_alert_kept_and_admission_called_on_fire(self):
        store = TimeSeriesStore()
        admission = self.FakeAdmission()
        alerter = BurnRateAlerter(
            store,
            make_slo(0.9),
            rules=[BurnRateRule(2.0, 4.0, 2.0)],
            admission=admission,
        )
        total = 0
        for t in range(6):
            scrape(store, float(t), total, 0)
            total += 10
        (alert,) = alerter.evaluate(5.0)
        assert alerter.alerts == [alert]
        assert admission.armed == [PRE_ARM_PROBABILITY]
        # Still-active alert does not re-arm every tick.
        alerter.evaluate(5.5)
        assert admission.armed == [PRE_ARM_PROBABILITY]


class TestRules:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(fast_seconds=0.0, slow_seconds=5.0, threshold=2.0)
        with pytest.raises(ValueError):
            BurnRateRule(fast_seconds=6.0, slow_seconds=5.0, threshold=2.0)
        with pytest.raises(ValueError):
            BurnRateRule(fast_seconds=1.0, slow_seconds=5.0, threshold=0.0)

    def test_rule_name(self):
        assert BurnRateRule(2.0, 10.0, 10.0).name == "burn[2s/10s]x10"

    def test_default_ladder_shape(self):
        assert len(DEFAULT_RULES) >= 2
        fast, slow = DEFAULT_RULES[0], DEFAULT_RULES[1]
        # The fast pair pages on sharper burn than the slow pair.
        assert fast.threshold > slow.threshold
        assert fast.fast_seconds < slow.fast_seconds

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            BurnRateAlerter(TimeSeriesStore(), make_slo(), rules=[])

    def test_window_longer_than_the_ring_rejected(self):
        # 32 buckets of 0.5 s: a window may reach back 31 buckets, 15.5 s.
        store = TimeSeriesStore(resolution_seconds=0.5, capacity=32)
        with pytest.raises(ValueError, match="15.5s"):
            BurnRateAlerter(store, make_slo(), rules=[BurnRateRule(5.0, 25.0, 4.0)])
        with pytest.raises(ValueError):
            BurnRateAlerter(store, make_slo(), rules=[BurnRateRule(2.0, 16.0, 4.0)])
        BurnRateAlerter(store, make_slo(), rules=[BurnRateRule(2.0, 15.5, 4.0)])

    def test_window_at_the_reach_reads_the_whole_increase(self):
        # A counter rising 1 per 0.5 s scrape, long after the 8-slot ring
        # first wrapped: a window of the ring's reach (3.5 s) still opens in
        # a held bucket, one a bucket longer opens in a wrapped one and
        # reads short, which is why the alerter rejects such a window.
        store = TimeSeriesStore(resolution_seconds=0.5, capacity=8)
        for tick in range(200):
            store.record(SLO_TOTAL_METRIC, float(tick), t=tick * 0.5)
        now = 199 * 0.5
        assert store.counter_delta(SLO_TOTAL_METRIC, now - 3.5, now) == 7.0
        # The counter rose 8 over the last 4 s.
        assert store.counter_delta(SLO_TOTAL_METRIC, now - 4.0, now) == 7.0
        BurnRateAlerter(store, make_slo(), rules=[BurnRateRule(1.0, 3.5, 4.0)])

    def test_default_rules_fit_the_serving_store(self):
        # The store the serving tier builds for its telemetry.
        store = TimeSeriesStore(resolution_seconds=TELEMETRY_INTERVAL_SECONDS)
        alerter = BurnRateAlerter(store, make_slo())
        assert alerter.rules == list(DEFAULT_RULES)

    def test_alert_describe_active(self):
        alert = SLOAlert(
            rule=BurnRateRule(2.0, 6.0, 2.0),
            fired_at=3.0,
            fast_burn=4.0,
            slow_burn=3.0,
            peak_fast_burn=4.0,
        )
        text = alert.describe()
        assert "ACTIVE" in text and "burn[2s/6s]x2" in text


TIMELINE_PATH = Path(__file__).with_name("fixtures") / "slo_burn_timeline.json"

#: (from, to, share of the tick's requests that miss the SLO).
_INCIDENTS = (
    (30.0, 45.0, 0.5),     # sharp and sustained: both rules
    (100.0, 140.0, 0.06),  # low-grade: the slow pair only, flapping
    (200.0, 201.5, 1.0),   # three ticks of total failure
    (230.0, 260.0, 0.9),   # straddles the silence below
)
#: No scrape at all in here (the collector's kernel was stalled).
_SILENCE = (240.0, 252.0)


def scripted_timeline() -> Dict[str, object]:
    """300 simulated seconds of scrapes every 0.5 s, evaluated every tick.

    The ring holds 32 s, room for the 25 s window; the run has healthy
    traffic, four incidents of different shapes, an idle stretch and a
    stretch with no scrapes.
    """
    rng = random.Random(7)
    store = TimeSeriesStore(resolution_seconds=0.5, capacity=64)
    alerter = BurnRateAlerter(store, make_slo(0.99))
    digest = hashlib.sha256()
    total = good = 0
    for tick in range(1, 601):
        now = tick * 0.5
        if _SILENCE[0] <= now < _SILENCE[1]:
            continue
        requests = 0 if 160.0 <= now < 175.0 else rng.randint(20, 40)
        bad_share = max(
            (share for lo, hi, share in _INCIDENTS if lo <= now < hi),
            default=0.002,
        )
        bad = sum(1 for _ in range(requests) if rng.random() < bad_share)
        total += requests
        good += requests - bad
        scrape(store, now, total, good)
        alerter.evaluate(now)
        for rule in alerter.rules:
            digest.update(
                repr(
                    (
                        now,
                        alerter.burn_rate(now, rule.fast_seconds),
                        alerter.burn_rate(now, rule.slow_seconds),
                    )
                ).encode()
            )
    return {
        "alerts": [
            {
                "rule": alert.rule.name,
                "fired_at": alert.fired_at,
                "cleared_at": alert.cleared_at,
                "fast_burn": alert.fast_burn,
                "slow_burn": alert.slow_burn,
                "peak_fast_burn": alert.peak_fast_burn,
            }
            for alert in alerter.alerts
        ],
        "burn_rates_sha256": digest.hexdigest(),
    }


class TestScriptedTimeline:
    def test_same_alerts_at_the_same_times(self):
        expected = json.loads(TIMELINE_PATH.read_text())
        observed = scripted_timeline()
        assert observed["alerts"] == expected["alerts"]
        assert observed["burn_rates_sha256"] == expected["burn_rates_sha256"]

    def test_timeline_exercises_both_rules_and_clears(self):
        alerts = json.loads(TIMELINE_PATH.read_text())["alerts"]
        assert {alert["rule"] for alert in alerts} == {
            rule.name for rule in DEFAULT_RULES
        }
        assert sum(alert["cleared_at"] is not None for alert in alerts) >= 3


if __name__ == "__main__":
    TIMELINE_PATH.parent.mkdir(exist_ok=True)
    TIMELINE_PATH.write_text(json.dumps(scripted_timeline(), indent=1) + "\n")
    print(f"wrote {TIMELINE_PATH}")
