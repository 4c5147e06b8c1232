"""Acceptance tests: 50+ concurrent clients on the TPC-W ordering mix.

These are the issue's acceptance criteria for the serving tier: p99
response time rises monotonically as offered load approaches node
capacity, and enabling admission control measurably restores SLO
compliance in overload.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.prediction.slo import ServiceLevelObjective
from repro.serving import ServingConfig, run_serving_simulation
from repro.workloads import TpcwWorkload, WorkloadScale

SLO = ServiceLevelObjective(quantile=0.99, latency_seconds=0.1, interval_seconds=5.0)


@pytest.fixture(scope="module")
def tpcw_serving_db():
    """A small TPC-W database on a low-capacity cluster (saturates early)."""
    db = PiqlDatabase.simulated(
        ClusterConfig(storage_nodes=4, node_capacity_ops_per_second=400.0, seed=5)
    )
    workload = TpcwWorkload()
    workload.setup(
        db, WorkloadScale(storage_nodes=2, users_per_node=30, items_total=100)
    )
    return db, workload


class TestServingSlo:
    def test_p99_rises_monotonically_with_offered_load(self, tpcw_serving_db):
        db, workload = tpcw_serving_db
        p99s = []
        for rate in (40.0, 120.0, 200.0):
            report = run_serving_simulation(
                db,
                workload,
                ServingConfig(
                    mode="open",
                    clients=50,
                    arrival_rate_per_second=rate,
                    duration_seconds=10.0,
                    slo=SLO,
                    seed=3,
                ),
            )
            assert report.completed > 50
            p99s.append(report.response_percentile_ms(0.99))
        assert p99s[0] < p99s[1] < p99s[2]
        # The last rate is past the knee: latency is not just rising but
        # has left the SLO far behind.
        assert p99s[2] > 10 * p99s[0]

    def test_admission_control_restores_compliance_in_overload(
        self, tpcw_serving_db
    ):
        db, workload = tpcw_serving_db
        compliance = {}
        shed = {}
        for admission in (False, True):
            report = run_serving_simulation(
                db,
                workload,
                ServingConfig(
                    mode="open",
                    clients=50,
                    arrival_rate_per_second=200.0,
                    duration_seconds=12.0,
                    slo=SLO,
                    admission=admission,
                    seed=3,
                ),
            )
            compliance[admission] = report.overall_compliance
            shed[admission] = report.admission.shed if report.admission else 0
        assert shed[False] == 0
        assert shed[True] > 0
        # The controller refuses part of the offered load and the admitted
        # requests come back into compliance.
        assert compliance[True] > compliance[False] + 0.2

    def test_interval_windows_capture_the_violation(self, tpcw_serving_db):
        db, workload = tpcw_serving_db
        report = run_serving_simulation(
            db,
            workload,
            ServingConfig(
                mode="open",
                clients=50,
                arrival_rate_per_second=200.0,
                duration_seconds=10.0,
                slo=SLO,
                seed=3,
            ),
        )
        assert report.windows, "expected at least one completed SLO interval"
        assert any(window.violated for window in report.windows)

    def test_cluster_is_left_clean_after_a_run(self, tpcw_serving_db):
        db, workload = tpcw_serving_db
        run_serving_simulation(
            db,
            workload,
            ServingConfig(
                mode="closed",
                clients=50,
                think_time_seconds=0.5,
                duration_seconds=3.0,
                slo=SLO,
                seed=3,
            ),
        )
        assert all(node.request_queue is None for node in db.cluster.nodes)
        assert all(node.utilization == 0.0 for node in db.cluster.nodes)
