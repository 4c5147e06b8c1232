"""Tests for the Performance Insight Assistant and the cost-based baseline."""

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.optimizer.assistant import PerformanceInsightAssistant
from repro.optimizer.cost_based import CostBasedOptimizer, TableStatistics
from repro.plans import physical as P
from repro.prediction.heatmap import prediction_heatmap
from repro.prediction.slo import ServiceLevelObjective
from repro.workloads.scadr.queries import SUBSCRIBER_INTERSECTION
from repro.workloads.scadr.schema import scadr_ddl


@pytest.fixture
def scadr_catalog():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=1))
    db.execute_ddl(scadr_ddl(100))
    return db.catalog


class TestAssistant:
    def test_diagnose_scale_independent_query(self, scadr_catalog, thoughtstream_sql):
        assistant = PerformanceInsightAssistant(scadr_catalog)
        diagnosis = assistant.diagnose(thoughtstream_sql)
        assert diagnosis.scale_independent
        assert diagnosis.optimized is not None
        assert "bounded plan found" in diagnosis.message
        assert "IndexScan" not in diagnosis.render() or diagnosis.logical_plan

    def test_diagnose_unbounded_query_suggests_cardinality(self, scadr_catalog):
        assistant = PerformanceInsightAssistant(scadr_catalog)
        diagnosis = assistant.diagnose("SELECT * FROM users WHERE hometown = <town>")
        assert not diagnosis.scale_independent
        assert diagnosis.problem_relation == "users"
        assert "hometown" in diagnosis.candidate_attributes
        rendered = diagnosis.render()
        assert "NOT scale-independent" in rendered
        assert "CARDINALITY LIMIT" in rendered

    def test_missing_subscription_limit_is_reported(self):
        # Without the CARDINALITY LIMIT on subscriptions, optimization of the
        # thoughtstream query must fail and point at the subscriptions join
        # (the scenario of Section 6.4).
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=1))
        ddl = scadr_ddl(100).replace(
            "CARDINALITY LIMIT 100 (owner)", "extra VARCHAR(10)"
        )
        db.execute_ddl(ddl)
        assistant = PerformanceInsightAssistant(db.catalog)
        diagnosis = assistant.diagnose(
            "SELECT t.* FROM subscriptions s JOIN thoughts t "
            "WHERE t.owner = s.target AND s.owner = <uname> "
            "ORDER BY t.timestamp DESC LIMIT 10"
        )
        assert not diagnosis.scale_independent
        assert diagnosis.problem_relation in ("s", "t")

    def test_cardinality_grid_through_the_heatmap(self):
        def fake_predict(subscriptions: int, per_page: int) -> float:
            return subscriptions * per_page / 100_000.0

        heatmap = prediction_heatmap(fake_predict, [100, 200], [10, 20])
        assert heatmap.cells_seconds == [[0.01, 0.02], [0.02, 0.04]]
        slo = ServiceLevelObjective(latency_seconds=0.03)
        assert heatmap.acceptable_settings(slo) == [(100, 10), (100, 20), (200, 10)]

    def test_recommend_max_cardinality(self, scadr_catalog):
        assistant = PerformanceInsightAssistant(scadr_catalog)
        recommended = assistant.recommend_max_cardinality(
            lambda c: c / 1000.0, slo_latency_seconds=0.25, candidates=[50, 100, 250, 500]
        )
        assert recommended == 250
        assert assistant.recommend_max_cardinality(
            lambda c: 10.0, slo_latency_seconds=0.25, candidates=[50]
        ) is None


class TestCostBasedBaseline:
    def test_prefers_unbounded_scan_with_small_average(self, scadr_catalog):
        optimizer = CostBasedOptimizer(
            scadr_catalog,
            {"subscriptions": TableStatistics(
                row_count=1_000_000, avg_rows_per_value={("target",): 126.0}
            )},
        )
        plan = optimizer.optimize(SUBSCRIBER_INTERSECTION)
        assert not plan.scale_independent
        assert "unbounded index scan" in plan.description
        scans = P.find_scans(plan.physical_plan)
        assert scans and scans[0].limit_hint is None

    def test_prefers_bounded_lookups_with_huge_average(self, scadr_catalog):
        optimizer = CostBasedOptimizer(
            scadr_catalog,
            {"subscriptions": TableStatistics(
                row_count=10_000_000, avg_rows_per_value={("target",): 50_000.0}
            )},
        )
        plan = optimizer.optimize(SUBSCRIBER_INTERSECTION)
        assert plan.scale_independent
        assert "random" in plan.description

    def test_enumerates_both_candidates(self, scadr_catalog):
        optimizer = CostBasedOptimizer(scadr_catalog, {})
        candidates = optimizer.enumerate_plans(SUBSCRIBER_INTERSECTION)
        kinds = {c.scale_independent for c in candidates}
        assert kinds == {True, False}

    def test_multi_relation_queries_unsupported(self, scadr_catalog, thoughtstream_sql):
        optimizer = CostBasedOptimizer(scadr_catalog, {})
        with pytest.raises(Exception):
            optimizer.optimize(thoughtstream_sql)
