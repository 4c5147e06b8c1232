"""Unit tests for the prediction-drift detector."""

from __future__ import annotations

import pytest

from repro.errors import PredictionError
from repro.obs.drift import (
    MAX_CLASSES,
    MIN_OBSERVATIONS,
    WINDOW,
    PredictionDriftDetector,
    PredictionEnvelope,
)
from repro.obs.export import telemetry_to_json
from repro.obs.telemetry import FleetTelemetry, TelemetryCollector
from repro.obs.timeseries import TimeSeriesStore


class FakeDistribution:
    """A stand-in for LatencyHistogram: fixed quantiles."""

    def __init__(self, p_low, p50, p_high):
        self.quantiles = {0.05: p_low, 0.5: p50, 0.99: p_high}

    def quantile(self, q):
        return self.quantiles[q]


class FakeModel:
    """Duck-typed QueryLatencyModel: prices plans by identity."""

    def __init__(self):
        self.distributions = {}
        self.calls = 0

    def predict_distribution(self, plan):
        self.calls += 1
        try:
            return self.distributions[id(plan)]
        except KeyError:
            raise PredictionError("unknown plan")


class FakeQuery:
    def __init__(self, sql, plan):
        self.sql = sql
        self.physical_plan = plan


def make_detector(model=None):
    return PredictionDriftDetector(model or FakeModel())


def priced_query(model, sql, p_low=0.008, p50=0.010, p_high=0.020):
    plan = object()
    model.distributions[id(plan)] = FakeDistribution(p_low, p50, p_high)
    return FakeQuery(sql, plan)


class TestObservation:
    def test_residuals_accumulate_per_class(self):
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "SELECT a FROM t WHERE k = ?", p50=0.010)
        for observed in (0.011, 0.012, 0.009):
            detector.observe(query, observed)
        (report,) = detector.report()
        assert report.observations == 3
        assert report.median_residual_seconds == pytest.approx(0.001)
        assert not report.drifting

    def test_query_class_normalises_whitespace(self):
        model = FakeModel()
        detector = make_detector(model)
        plan = object()
        model.distributions[id(plan)] = FakeDistribution(0.008, 0.010, 0.020)
        detector.observe(FakeQuery("SELECT a\n  FROM t", plan), 0.010)
        detector.observe(FakeQuery("SELECT a FROM t", plan), 0.010)
        (report,) = detector.report()
        assert report.query_class == "SELECT a FROM t"
        assert report.observations == 2

    def test_envelope_cached_per_plan(self):
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "SELECT 1")
        for _ in range(10):
            detector.observe(query, 0.010)
        assert model.calls == 1

    def test_unpredictable_plan_is_counted_not_fatal(self):
        model = FakeModel()
        detector = make_detector(model)
        detector.observe(FakeQuery("SELECT weird", object()), 0.010)
        assert detector.unpredictable == 1
        assert detector.report() == []

    def test_class_cap(self):
        model = FakeModel()
        detector = make_detector(model)
        for i in range(MAX_CLASSES + 3):
            detector.observe(priced_query(model, f"SELECT {i}"), 0.010)
        assert len(detector.report()) == MAX_CLASSES
        assert detector.dropped_classes == 3


class TestDriftFlag:
    def test_within_envelope_is_ok(self):
        model = FakeModel()
        detector = make_detector(model)
        # Envelope residuals: [-2 ms, +10 ms] around p50 = 10 ms.
        query = priced_query(model, "q", p_low=0.008, p50=0.010, p_high=0.020)
        for _ in range(10):
            detector.observe(query, 0.015)  # +5 ms, inside the envelope
        (report,) = detector.report()
        assert not report.drifting
        assert not any(r.drifting for r in detector.report())
        assert "ok" in report.describe()

    def test_sustained_slowdown_flags_drift(self):
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "q", p_low=0.008, p50=0.010, p_high=0.020)
        for _ in range(10):
            detector.observe(query, 0.030)  # +20 ms, outside +10 ms envelope
        (report,) = detector.report()
        assert report.drifting
        assert [r.query_class for r in detector.report() if r.drifting] == ["q"]
        assert "DRIFTING" in report.describe()

    def test_speedup_outside_envelope_also_flags(self):
        # Drift is two-sided: a model over-predicting is as stale as one
        # under-predicting.
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "q", p_low=0.008, p50=0.010, p_high=0.020)
        for _ in range(10):
            detector.observe(query, 0.001)  # -9 ms, below -2 ms envelope edge
        (report,) = detector.report()
        assert report.drifting

    def test_min_observations_suppresses_cold_flags(self):
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "q", p_low=0.008, p50=0.010, p_high=0.020)
        for _ in range(MIN_OBSERVATIONS - 1):
            detector.observe(query, 1.0)  # wildly slow, but one too few
        (report,) = detector.report()
        assert not report.drifting

    def test_rolling_window_forgets_old_regime(self):
        model = FakeModel()
        detector = make_detector(model)
        query = priced_query(model, "q", p_low=0.008, p50=0.010, p_high=0.020)
        for _ in range(WINDOW + 12):
            detector.observe(query, 0.100)  # old, drifting regime
        assert detector.report()[0].drifting
        for _ in range(WINDOW):
            detector.observe(query, 0.010)  # recovery fills the window
        (report,) = detector.report()
        assert report.observations == 2 * WINDOW + 12
        assert not report.drifting

    def test_reset(self):
        model = FakeModel()
        detector = make_detector(model)
        detector.observe(priced_query(model, "q"), 0.010)
        detector.reset()
        assert detector.report() == []


class TestEnvelope:
    def test_residual_bounds(self):
        envelope = PredictionEnvelope(
            p_low_seconds=0.008, p50_seconds=0.010, p_high_seconds=0.020
        )
        assert envelope.low_residual == pytest.approx(-0.002)
        assert envelope.high_residual == pytest.approx(0.010)


class TestDropsAreExported:
    """What the detector turned away reaches the ``fleet-telemetry/v1``
    artifact beside the store's own drops."""

    def artifact(self, detector=None):
        store = TimeSeriesStore()
        bundle = FleetTelemetry(store, TelemetryCollector(store), drift=detector)
        return telemetry_to_json(bundle)

    def test_class_cap_and_unpriced_plans_are_reported(self):
        model = FakeModel()
        detector = make_detector(model)
        detector.observe(FakeQuery("SELECT weird", object()), 0.010)
        for i in range(MAX_CLASSES + 2):
            detector.observe(priced_query(model, f"SELECT {i}"), 0.010)
        artifact = self.artifact(detector)
        assert artifact["drift_dropped_classes"] == 2
        assert artifact["drift_unpredictable"] == 1

    def test_zero_without_a_detector(self):
        artifact = self.artifact()
        assert artifact["drift_dropped_classes"] == 0
        assert artifact["drift_unpredictable"] == 0
