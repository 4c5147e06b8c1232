"""Tests for the sliding-window SLO monitor."""

from __future__ import annotations

import random

import pytest

from repro.prediction.slo import ServiceLevelObjective
from repro.serving import SLOMonitor
from repro.serving.monitor import CONTROL_WINDOW_SECONDS


def make_monitor() -> SLOMonitor:
    slo = ServiceLevelObjective(
        quantile=0.9, latency_seconds=0.1, interval_seconds=10.0
    )
    return SLOMonitor(slo)


class TestLiveSignals:
    def test_percentile_over_recent_window(self):
        monitor = make_monitor()
        for i in range(10):
            monitor.record(1.0 + i * 0.1, 0.01 * (i + 1))
        assert monitor.percentile(0.5, 2.0) == pytest.approx(0.06)
        assert monitor.percentile(1.0, 2.0) == pytest.approx(0.10)

    def test_old_samples_age_out_of_the_control_window(self):
        monitor = make_monitor()
        monitor.record(0.0, 5.0)  # terrible, but older than the window
        start = CONTROL_WINDOW_SECONDS + 1.0
        for i in range(30):
            monitor.record(start + i * 0.01, 0.01)
        assert monitor.percentile(1.0, start + 0.3) == pytest.approx(0.01)

    def test_recent_compliance(self):
        monitor = make_monitor()
        for i in range(8):
            monitor.record(i * 0.1, 0.01)
        for i in range(2):
            monitor.record(1.0 + i * 0.1, 1.0)
        assert monitor.recent_compliance(1.2) == pytest.approx(0.8)


    def test_recent_compliance_equals_a_recount_of_the_window(self):
        """The running compliant count matches a recount of the window at
        every step of a seeded stream, stragglers stamped behind the
        horizon included."""
        monitor = make_monitor()
        rng = random.Random(7)
        now = 0.0
        for _ in range(2000):
            now += rng.expovariate(50.0)
            stamp = now - rng.uniform(0.0, 8.0) if rng.random() < 0.1 else now
            monitor.record(stamp, rng.choice((0.05, 0.1, 0.2, 2.0)))
            compliance = monitor.recent_compliance(now)
            window = list(monitor._recent)
            compliant = sum(
                1 for _, latency in window
                if latency <= monitor.slo.latency_seconds
            )
            assert compliance == compliant / len(window)


class TestIntervalReports:
    def test_windows_bin_by_slo_interval(self):
        monitor = make_monitor()
        for i in range(10):
            monitor.record(float(i), 0.05)  # interval 0: all compliant
        for i in range(10):
            monitor.record(10.0 + i, 0.2)  # interval 1: all violating
        reports = monitor.finalize()
        assert [r.index for r in reports] == [0, 1]
        assert reports[0].count == 10
        assert not reports[0].violated
        assert reports[0].compliance == 1.0
        assert reports[1].violated
        assert reports[1].compliance == 0.0
        assert reports[1].quantile_seconds == pytest.approx(0.2)
        assert reports[1].start_seconds == pytest.approx(10.0)

    def test_empty_intervals_are_skipped(self):
        monitor = make_monitor()
        monitor.record(1.0, 0.05)
        monitor.record(35.0, 0.05)  # intervals 1 and 2 are silent
        reports = monitor.finalize()
        assert [r.index for r in reports] == [0, 3]

    def test_overall_compliance(self):
        monitor = make_monitor()
        for i in range(3):
            monitor.record(float(i), 0.05)
        monitor.record(3.0, 0.5)
        assert monitor.overall_compliance == pytest.approx(0.75)


class TestFailureAccounting:
    def test_failures_stay_out_of_latency_statistics(self):
        monitor = make_monitor()
        for i in range(10):
            monitor.record(float(i), 0.05)
        monitor.record_failure(5.0)
        monitor.record_failure(6.0)
        # Percentiles and compliance remain statements about *completed*
        # requests; failures are tracked separately for the error budget.
        assert monitor.total_observations == 10
        assert monitor.total_failed == 2
        assert monitor.overall_compliance == pytest.approx(1.0)

    def test_failures_burn_the_scraped_error_budget(self):
        from repro.obs.telemetry import TelemetryCollector
        from repro.obs.timeseries import TimeSeriesStore

        monitor = make_monitor()
        store = TimeSeriesStore(resolution_seconds=1.0)
        collector = TelemetryCollector(store, monitor=monitor)
        collector.scrape(0.5)  # baseline scrape: all counters at zero
        for i in range(8):
            monitor.record(1.0 + i, 0.05)
        for _ in range(2):
            monitor.record_failure(8.0)
        collector.scrape(10.0)
        total = store.counter_delta("serving.slo.total", 0.0, 11.0)
        good = store.counter_delta("serving.slo.good", 0.0, 11.0)
        # The scraped totals include the failed interactions, so burn-rate
        # alerting sees fast-dying requests even though no latency sample
        # exists for them.
        assert total == pytest.approx(10.0)
        assert good == pytest.approx(8.0)
