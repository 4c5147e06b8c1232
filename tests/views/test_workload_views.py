"""Workload integration: restored best-sellers page and SCADr profile counts."""

from __future__ import annotations

import random

import pytest

from repro import PiqlDatabase
from repro.errors import NotScaleIndependentError
from repro.kvstore.cluster import ClusterConfig
from repro.serving.simulator import ServingConfig, ServingSimulation
from repro.views.maintenance import recompute_top_k, recompute_view
from repro.workloads.base import WorkloadScale
from repro.workloads.scadr.workload import ScadrWorkload
from repro.workloads.tpcw.queries import QUERY_MODIFICATIONS
from repro.workloads.tpcw.schema import SUBJECTS
from repro.workloads.tpcw.workload import TpcwWorkload


@pytest.fixture(scope="module")
def tpcw_with_views():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=77))
    workload = TpcwWorkload(materialized_views=True)
    workload.setup(
        db, WorkloadScale(storage_nodes=2, users_per_node=20, items_total=160)
    )
    return db, workload


class TestTpcwBestSellers:
    def test_best_sellers_listed_as_precomputed(self):
        assert "materialized view" in QUERY_MODIFICATIONS["best_sellers_wi"]

    def test_query_compiles_to_bounded_view_scan(self, tpcw_with_views):
        db, workload = tpcw_with_views
        prepared = db.prepare(workload.query_sql("best_sellers_wi"))
        assert prepared.optimized.view_used == "best_sellers_by_subject"
        assert prepared.operation_bound == 51  # 1 range + 50 dereferences
        # No additional (auto-created) indexes beyond the view's own.
        assert prepared.optimized.required_indexes == []

    def test_rejected_without_views(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=78))
        workload = TpcwWorkload()  # views off: the paper's original workload
        workload.setup(
            db, WorkloadScale(storage_nodes=2, users_per_node=5, items_total=40)
        )
        assert "best_sellers_wi" not in workload.query_names()
        with pytest.raises(NotScaleIndependentError):
            db.prepare(TpcwWorkload(materialized_views=True)
                       .query_sql("best_sellers_wi"))

    def test_results_match_offline_recompute_after_traffic(self, tpcw_with_views):
        db, workload = tpcw_with_views
        rng = random.Random(5)
        for _ in range(120):
            workload.run_plan(db, workload.interaction_plan(db, rng))
        view = db.catalog.view("best_sellers_by_subject")
        recomputed = recompute_view(view, db.catalog, db.cluster)
        prepared = db.prepare(workload.query_sql("best_sellers_wi"))
        for subject in SUBJECTS[:4]:
            expected = [
                {"OL_I_ID": row["OL_I_ID"], "total_sold": row["total_sold"]}
                for row in recompute_top_k(view, recomputed, (subject,))
            ]
            assert prepared.execute(subject=subject).rows == expected

    def test_noop_order_line_update_costs_base_ops_only(self, tpcw_with_views):
        db, _ = tpcw_with_views
        db.insert("order_line", {
            "OL_O_ID": 77_000_001, "OL_ID": 1, "OL_I_ID": 1, "OL_QTY": 2,
            "OL_DISCOUNT": 0.0, "OL_COMMENT": "",
        })
        before = db.client.stats.operations
        # Only the comment changes: neither grouped, aggregated, predicate,
        # nor dimension-key columns — the view pays nothing, not even the
        # item dimension lookup, so the update is the base get + put.
        db.update("order_line", {
            "OL_O_ID": 77_000_001, "OL_ID": 1, "OL_I_ID": 1, "OL_QTY": 2,
            "OL_DISCOUNT": 0.0, "OL_COMMENT": "gift wrap",
        })
        assert db.client.stats.operations - before == 2

    def test_interaction_plan_served_through_serving_tier(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=79))
        # Boost the best-sellers weight so a short run serves several pages.
        workload = TpcwWorkload(materialized_views=True)
        workload.mix["best_sellers"] = 0.5
        workload.setup(
            db, WorkloadScale(storage_nodes=2, users_per_node=10, items_total=80)
        )
        report = ServingSimulation(
            db,
            workload,
            ServingConfig(mode="closed", clients=8, think_time_seconds=0.2,
                          duration_seconds=3.0, seed=4),
        ).run()
        names = {record.name for record in report.log.records}
        assert "best_sellers" in names
        bound = db.prepare(
            workload.query_sql("best_sellers_wi")
        ).operation_bound
        for record in report.log.records:
            if record.name != "best_sellers":
                continue
            by_label = dict(record.query_operations)
            assert by_label["best_sellers_wi"] <= bound


class TestScadrCounts:
    def test_home_page_includes_profile_counts(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=80))
        workload = ScadrWorkload(materialized_views=True)
        workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=15))
        rng = random.Random(9)
        result = workload.run_plan(db, workload.interaction_plan(db, rng))
        assert {"thought_count", "follower_count"} <= set(
            result.query_latencies
        )
        # Each count is one bounded point read of its view.
        assert result.query_operations["thought_count"] == 1
        assert result.query_operations["follower_count"] == 1

    def test_both_count_queries_actually_use_their_views(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=83))
        workload = ScadrWorkload(materialized_views=True)
        workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=10))
        thought = db.prepare(workload.query_sql("thought_count"))
        follower = db.prepare(workload.query_sql("follower_count"))
        assert thought.optimized.view_used == "user_thought_counts"
        # The follower count groups by target — the direction the schema's
        # CARDINALITY LIMIT does not bound — so only the view can serve it.
        assert follower.optimized.view_used == "user_follower_counts"
        uname = workload.usernames[0]
        followers = follower.execute(uname=uname).rows
        if followers:
            assert followers[0]["follower_count"] > 0

    def test_counts_track_posts(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=81))
        workload = ScadrWorkload(materialized_views=True)
        workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=10))
        query = db.prepare(workload.query_sql("thought_count"))
        uname = workload.usernames[0]
        before = query.execute(uname=uname).rows[0]["thought_count"]
        db.insert("thoughts", {
            "owner": uname, "timestamp": 9_999_999_999, "text": "new",
        })
        after = query.execute(uname=uname).rows[0]["thought_count"]
        assert after == before + 1
