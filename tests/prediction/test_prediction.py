"""Tests for histograms, operator models, SLO predictions, and heatmaps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, PiqlDatabase
from repro.errors import PredictionError
from repro.kvstore.cluster import KeyValueCluster
from repro.prediction.heatmap import thoughtstream_heatmap
from repro.prediction.histogram import LatencyHistogram, convolve_all
from repro.prediction.model import (
    OperatorModelKey,
    OperatorModelStore,
    QueryLatencyModel,
)
from repro.prediction.slo import (
    ServiceLevelObjective,
    SLOPrediction,
    observed_interval_quantiles,
)
from repro.prediction.training import OperatorModelTrainer, TrainingConfig
from repro.workloads.scadr.schema import scadr_ddl

FAST_TRAINING = TrainingConfig(
    alphas=(1, 10, 50, 100, 500),
    join_cardinalities=(1, 10, 50),
    tuple_sizes=(40, 160),
    intervals=3,
    samples_per_interval=4,
    oversample_factor=20,
    max_samples_per_interval=60,
)


@pytest.fixture(scope="module")
def trained_store() -> OperatorModelStore:
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=10, seed=55))
    return OperatorModelTrainer(cluster, FAST_TRAINING).train()


class TestHistogram:
    def test_quantiles_and_mean(self):
        histogram = LatencyHistogram.from_samples([0.010] * 99 + [0.100])
        assert histogram.quantile(0.5) == pytest.approx(0.0105, abs=1e-3)
        assert histogram.quantile(1.0) == pytest.approx(0.1005, abs=1e-3)
        assert 0.010 < histogram.mean() < 0.012

    def test_empty_histogram_rejected(self):
        with pytest.raises(PredictionError):
            LatencyHistogram().quantile(0.99)

    def test_invalid_inputs(self):
        histogram = LatencyHistogram()
        with pytest.raises(PredictionError):
            histogram.add(-1.0)
        histogram.add(0.01)
        with pytest.raises(PredictionError):
            histogram.quantile(0.0)

    def test_convolution_shifts_distribution(self):
        a = LatencyHistogram.from_samples([0.010] * 100)
        b = LatencyHistogram.from_samples([0.020] * 100)
        combined = a.convolve(b)
        assert combined.quantile(0.5) == pytest.approx(0.030, abs=2e-3)

    def test_convolve_all_matches_pairwise(self):
        a = LatencyHistogram.from_samples([0.005] * 50)
        b = LatencyHistogram.from_samples([0.007] * 50)
        c = LatencyHistogram.from_samples([0.002] * 50)
        assert convolve_all([a, b, c]).quantile(0.9) == pytest.approx(
            a.convolve(b).convolve(c).quantile(0.9)
        )

    def test_merge_pools_observations(self):
        a = LatencyHistogram.from_samples([0.001] * 10)
        b = LatencyHistogram.from_samples([0.003] * 10)
        assert a.merge(b).total == 20

    def test_incompatible_binning_rejected(self):
        a = LatencyHistogram(bin_width_seconds=0.001)
        b = LatencyHistogram(bin_width_seconds=0.002)
        a.add(0.01)
        b.add(0.01)
        with pytest.raises(PredictionError):
            a.convolve(b)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100)
    def test_quantile_is_monotone_and_bounded(self, samples, q):
        histogram = LatencyHistogram.from_samples(samples)
        value = histogram.quantile(q)
        assert 0 <= value <= histogram.max_latency_seconds + 1e-9
        assert histogram.quantile(1.0) >= value

    @given(st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=50),
           st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_convolution_dominates_components(self, left, right):
        a = LatencyHistogram.from_samples(left)
        b = LatencyHistogram.from_samples(right)
        combined = a.convolve(b)
        # The p99 of a sum of non-negative variables is at least each part's p99
        # minus binning error.
        assert combined.quantile(0.99) >= max(a.quantile(0.99), b.quantile(0.99)) - 0.002


class TestSLO:
    def test_slo_validation(self):
        with pytest.raises(PredictionError):
            ServiceLevelObjective(quantile=1.5)
        with pytest.raises(PredictionError):
            ServiceLevelObjective(latency_seconds=0)

    def test_prediction_statistics(self):
        prediction = SLOPrediction(0.99, [0.1, 0.2, 0.3, 0.4])
        assert prediction.max_seconds == 0.4
        assert prediction.percentile_across_intervals(0.5) == 0.3

    def test_violation_risk_and_meets(self):
        prediction = SLOPrediction(0.99, [0.1, 0.2, 0.6, 0.7])
        slo = ServiceLevelObjective(latency_seconds=0.5)
        assert prediction.violation_risk(slo) == pytest.approx(0.5)
        assert not prediction.meets(slo)
        assert SLOPrediction(0.99, [0.1, 0.2, 0.5]).meets(slo)

    def test_observed_interval_quantiles(self):
        quantiles = observed_interval_quantiles([[0.1] * 10, [0.2] * 10], 0.99)
        assert quantiles == [0.1, 0.2]
        with pytest.raises(PredictionError):
            observed_interval_quantiles([[]], 0.99)


class TestOperatorModels:
    def test_training_covers_all_operator_kinds(self, trained_store):
        operators = {key.operator for key in trained_store.keys()}
        assert operators == {"index_scan", "lookup", "sorted_index_join"}
        assert trained_store.intervals() == [0, 1, 2]

    def test_resolve_key_is_conservative(self, trained_store):
        requested = OperatorModelKey("index_scan", 60, 0, 100)
        resolved = trained_store.resolve_key(requested)
        assert resolved.alpha >= 60
        assert resolved.tuple_bytes >= 100

    def test_resolve_key_falls_back_to_largest(self, trained_store):
        requested = OperatorModelKey("index_scan", 10_000, 0, 10_000)
        resolved = trained_store.resolve_key(requested)
        assert resolved.alpha == max(FAST_TRAINING.alphas)

    def test_untrained_operator_rejected(self):
        store = OperatorModelStore()
        with pytest.raises(PredictionError):
            store.resolve_key(OperatorModelKey("index_scan", 10, 0, 10))

    def test_latency_grows_with_cardinality(self, trained_store):
        small = trained_store.histogram(OperatorModelKey("index_scan", 10, 0, 40))
        large = trained_store.histogram(OperatorModelKey("index_scan", 500, 0, 40))
        assert large.quantile(0.9) > small.quantile(0.9)


class TestQueryPrediction:
    @pytest.fixture
    def scadr_model(self, trained_store):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=5))
        db.execute_ddl(scadr_ddl(100))
        return db, QueryLatencyModel(trained_store, db.catalog)

    def test_requirements_extracted_from_plan(self, scadr_model, thoughtstream_sql):
        db, model = scadr_model
        plan = db.prepare(thoughtstream_sql).physical_plan
        requirements = model.operator_requirements(plan)
        kinds = [req.key.operator for req in requirements]
        assert kinds.count("index_scan") == 1
        assert kinds.count("sorted_index_join") == 1

    def test_prediction_is_per_interval(self, scadr_model, thoughtstream_sql):
        db, model = scadr_model
        plan = db.prepare(thoughtstream_sql).physical_plan
        prediction = model.predict(plan, 0.99)
        assert len(prediction.interval_quantiles_seconds) == FAST_TRAINING.intervals
        assert prediction.max_seconds >= min(prediction.interval_quantiles_seconds) > 0

    def test_join_prediction_larger_than_point_lookup(self, scadr_model, thoughtstream_sql):
        db, model = scadr_model
        join_plan = db.prepare(thoughtstream_sql).physical_plan
        point_plan = db.prepare("SELECT * FROM users WHERE username = <u>").physical_plan
        assert model.predict_quantile(join_plan) > model.predict_quantile(point_plan)


class TestHeatmap:
    def test_thoughtstream_heatmap_shape_and_monotonicity(self, trained_store):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=5))
        db.execute_ddl(scadr_ddl(100))
        model = QueryLatencyModel(trained_store, db.catalog)
        heatmap = thoughtstream_heatmap(
            model,
            subscription_counts=(100, 300, 500),
            page_sizes=(10, 30, 50),
        )
        assert len(heatmap.cells_seconds) == 3
        assert len(heatmap.cells_seconds[0]) == 3
        # Latency grows along both axes (as in Figure 6).
        assert heatmap.cell_ms(500, 10) > heatmap.cell_ms(100, 10)
        assert heatmap.cell_ms(100, 50) > heatmap.cell_ms(100, 10)
        rendered = heatmap.render()
        assert "records per page" in rendered

    def test_acceptable_settings_against_slo(self, trained_store):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=5))
        db.execute_ddl(scadr_ddl(100))
        model = QueryLatencyModel(trained_store, db.catalog)
        heatmap = thoughtstream_heatmap(
            model, subscription_counts=(100, 500), page_sizes=(10, 50)
        )
        slo = ServiceLevelObjective(latency_seconds=heatmap.cells_seconds[0][0] + 1e-6)
        acceptable = heatmap.acceptable_settings(slo)
        assert (100, 10) in acceptable
        assert (500, 50) not in acceptable
