"""Acceptance test for the fleet-telemetry subsystem.

One closed-loop serving run with an injected mid-run fault (a node crash
plus a concurrently degraded peer) must yield, from a single artifact:

* per-node time-series that cover the crash window,
* an SLO burn-rate alert that fires *during* the fault and clears after
  repair, and
* a prediction-drift report whose per-class median residuals sit inside
  the latency model's own envelope (the fault hurts tail latency, not the
  model's median truthfulness).
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.obs import BurnRateRule
from repro.prediction.model import QueryLatencyModel
from repro.prediction.slo import ServiceLevelObjective
from repro.prediction.training import train_default_model
from repro.replication import FaultSpec
from repro.resilience.breaker import FAILURE_THRESHOLD
from repro.serving import ServingConfig, ServingSimulation
from repro.workloads.base import InteractionResult, Workload, WorkloadScale


class PointLookupWorkload(Workload):
    """Single-query workload (mirrors conftest's, importable at module scope)."""

    name = "point-lookup"

    def __init__(self, rows: int = 200):
        self.rows = rows

    def setup(self, db: PiqlDatabase, scale: WorkloadScale) -> None:
        db.execute_ddl(
            "CREATE TABLE items (id INT, payload VARCHAR(64), PRIMARY KEY (id))"
        )
        db.bulk_load(
            "items",
            ({"id": i, "payload": f"payload-{i}"} for i in range(self.rows)),
        )
        self.prepare_all(db)

    def query_names(self) -> List[str]:
        return ["get_item"]

    def query_sql(self, name: str) -> str:
        return "SELECT * FROM items WHERE id = <id>"

    def sample_parameters(self, name: str, rng: random.Random) -> Dict[str, object]:
        return {"id": rng.randrange(self.rows)}

    def interaction(self, db: PiqlDatabase, rng: random.Random) -> InteractionResult:
        result = db.prepare(self.query_sql("get_item")).execute(
            self.sample_parameters("get_item", rng)
        )
        return InteractionResult(
            name="get_item",
            latency_seconds=result.latency_seconds,
            operations=result.operations,
            query_latencies={"get_item": result.latency_seconds},
        )


FAULT_START = 5.0
FAULT_END = 10.0
DURATION = 16.0


@pytest.fixture(scope="module")
def fault_run(tmp_path_factory):
    """One telemetry-enabled serving run with a mid-run fault, run once."""
    db = PiqlDatabase.simulated(
        ClusterConfig(
            storage_nodes=4, node_capacity_ops_per_second=400.0, seed=9
        )
    )
    workload = PointLookupWorkload()
    workload.setup(db, WorkloadScale(storage_nodes=4))
    # A trained latency model makes the auditor feed the drift detector.
    db.auditor.latency_model = QueryLatencyModel(
        train_default_model(db.cluster), db.catalog
    )
    healthy = db.prepare("SELECT * FROM items WHERE id = <id>").execute(
        {"id": 5}
    )
    slo = ServiceLevelObjective(
        quantile=0.9,
        latency_seconds=healthy.latency_seconds * 1.5,
        interval_seconds=4.0,
    )
    simulation = ServingSimulation(
        db,
        workload,
        ServingConfig(
            mode="closed",
            clients=20,
            think_time_seconds=0.2,
            duration_seconds=DURATION,
            slo=slo,
            # Node 1 crashes outright; node 2 degrades 12x at the same
            # moment, so the fault window both blanks a node and burns the
            # latency budget.  Both repair at FAULT_END.
            faults=[
                FaultSpec(time=FAULT_START, kind="crash", node_id=1),
                FaultSpec(time=FAULT_START, kind="slow", node_id=2, factor=12.0),
                FaultSpec(time=FAULT_END, kind="recover", node_id=1),
                FaultSpec(time=FAULT_END, kind="restore", node_id=2),
            ],
            telemetry_enabled=True,
            admission=True,
            burn_rules=[
                BurnRateRule(fast_seconds=2.0, slow_seconds=4.0, threshold=2.0)
            ],
            seed=3,
        ),
    )
    report = simulation.run()
    artifact_path = tmp_path_factory.mktemp("telemetry") / "telemetry_fault.json"
    report.telemetry.save(str(artifact_path))
    with open(artifact_path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    return simulation, report, artifact


def series(artifact, name, **labels):
    for entry in artifact["series"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry
    return None


class TestArtifact:
    def test_schema_and_scrape_health(self, fault_run):
        _, report, artifact = fault_run
        assert artifact["schema"] == "fleet-telemetry/v1"
        assert artifact["scrapes"] == report.telemetry.collector.scrapes
        assert artifact["scrapes"] >= DURATION / 0.5
        assert artifact["last_scrape_seconds"] == pytest.approx(DURATION)
        assert artifact["dropped_series"] == 0

    def test_per_node_series_cover_the_crash_window(self, fault_run):
        _, _, artifact = fault_run
        for node_id in range(4):
            entry = series(artifact, "node.up", node=str(node_id))
            assert entry is not None, f"node {node_id} has no node.up series"
            assert entry["points"], f"node {node_id} series is empty"
        crashed = series(artifact, "node.up", node="1")["points"]
        in_window = [
            p["last"]
            for p in crashed
            if FAULT_START <= p["start"] < FAULT_END
        ]
        outside = [
            p["last"]
            for p in crashed
            if p["start"] < FAULT_START or p["start"] >= FAULT_END
        ]
        assert in_window and all(v == 0.0 for v in in_window)
        assert outside and all(v == 1.0 for v in outside)
        # The healthy peers never blink.
        for node_id in (0, 3):
            points = series(artifact, "node.up", node=str(node_id))["points"]
            assert all(p["last"] == 1.0 for p in points)

    def test_queue_and_replication_series_present(self, fault_run):
        _, _, artifact = fault_run
        names = {entry["name"] for entry in artifact["series"]}
        assert "node.utilization" in names
        assert "node.queue.backlog_seconds" in names
        assert "replication.hint_backlog" in names
        assert "serving.slo.total" in names
        assert "admission.shed_probability" in names


class TestBurnRateAlert:
    def test_alert_fires_during_fault_and_clears_after_repair(self, fault_run):
        simulation, report, artifact = fault_run
        alerts = report.telemetry.alerts
        assert len(alerts) == 1
        alert = alerts[0]
        assert FAULT_START < alert.fired_at < FAULT_END
        assert alert.cleared_at is not None
        assert alert.cleared_at > FAULT_END
        assert alert.peak_fast_burn >= alert.rule.threshold
        # The artifact carries the same timeline.
        (exported,) = artifact["alerts"]
        assert exported["rule"] == alert.rule.name
        assert exported["fired_at"] == alert.fired_at
        assert exported["cleared_at"] == alert.cleared_at

    def test_report_alerts_are_the_alerters_timeline(self, fault_run):
        # One record of the incident: the report reads the alerter's own
        # alert objects rather than a copy kept elsewhere.
        simulation, report, _ = fault_run
        timeline = simulation.telemetry.alerter.alerts
        assert report.telemetry.alerts == timeline
        assert all(
            reported is kept
            for reported, kept in zip(report.telemetry.alerts, timeline)
        )

    def test_admission_controller_was_pre_armed(self, fault_run):
        simulation, _, _ = fault_run
        # The alerter seeds shed probability on firing; the controller may
        # decay it later, but the pre-arm path must have engaged.
        assert simulation.telemetry.alerter.admission is simulation.admission


class TestDriftReport:
    def test_every_class_median_inside_envelope(self, fault_run):
        _, report, artifact = fault_run
        drift_reports = report.telemetry.drift.report()
        assert drift_reports, "drift detector saw no queries"
        for drift in drift_reports:
            assert drift.observations >= 8
            assert (
                drift.envelope.low_residual
                <= drift.median_residual_seconds
                <= drift.envelope.high_residual
            )
            assert not drift.drifting
        assert not any(r.drifting for r in report.telemetry.drift.report())
        exported = artifact["drift"]
        assert len(exported) == len(drift_reports)
        assert all(not entry["drifting"] for entry in exported)


class TestRendering:
    def test_dashboard_renders_the_incident(self, fault_run):
        _, report, _ = fault_run
        text = report.dashboard()
        assert "FLEET TELEMETRY" in text
        assert "SLO BURN" in text
        assert "burn[2s/4s]x2" in text
        assert "PREDICTION DRIFT" in text
        for node_id in range(4):
            assert f" {node_id} " in text or f"node {node_id}" in text


class TestLatencyBreakdown:
    def test_dashboard_renders_critical_path_shares(self):
        """With forensics on, the scraped critical-path shares get their own
        section: a header, the traces analysed, and one row per segment."""
        from repro.obs.flightrec import ForensicsConfig

        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=4))
        workload = PointLookupWorkload(rows=50)
        workload.setup(db, WorkloadScale(storage_nodes=3))
        report = ServingSimulation(
            db,
            workload,
            ServingConfig(
                mode="closed", clients=4, think_time_seconds=0.2,
                duration_seconds=3.0, telemetry_enabled=True,
                forensics=ForensicsConfig(), seed=5,
            ),
        ).run()
        lines = report.dashboard().splitlines()
        start = lines.index("LATENCY BREAKDOWN (critical-path share)")
        assert lines[start + 1].startswith("  traces analyzed: ")
        assert int(lines[start + 1].split(":")[1].split()[0]) > 0
        assert lines[start + 2].strip() == "SELECT * FROM items WHERE id = <id>"
        segment, share = lines[start + 3].split()[:2]
        assert segment == "rpc_service"
        assert 0.0 < float(share.rstrip("%")) <= 100.0


class TestBreakerTelemetry:
    """The collector turns live breaker boards into per-node gauges."""

    def make_stack(self):
        from repro.kvstore import KeyValueCluster
        from repro.obs import FleetTelemetry, TelemetryCollector, TimeSeriesStore
        from repro.resilience.breaker import BreakerBoard

        cluster = KeyValueCluster(ClusterConfig(storage_nodes=3, seed=2))
        store = TimeSeriesStore(resolution_seconds=0.5)
        boards = [BreakerBoard() for _ in range(2)]
        collector = TelemetryCollector(
            store, cluster=cluster, breakers_fn=lambda: boards
        )
        telemetry = FleetTelemetry(store, collector)
        return store, boards, collector, telemetry

    def test_open_breakers_become_labelled_gauges(self):
        store, boards, collector, _ = self.make_stack()
        collector.scrape(0.0)
        # Healthy: every node reports an explicit zero, not absence.
        for node_id in range(3):
            points = store.points(
                "resilience.breaker.open_clients", {"node": node_id}
            )
            assert points and points[-1].last == 0.0
        assert store.latest_value("resilience.breaker.boards") == 2.0

        for _ in range(FAILURE_THRESHOLD):
            boards[0].record_failure(1, 1.0)  # client 0 fences node 1
            boards[1].record_failure(1, 1.0)  # client 1 agrees
        collector.scrape(1.0)
        points = store.points(
            "resilience.breaker.open_clients", {"node": 1}
        )
        assert points[-1].last == 2.0
        points = store.points(
            "resilience.breaker.open_clients", {"node": 0}
        )
        assert points[-1].last == 0.0

    def test_dashboard_renders_breaker_section(self):
        store, boards, collector, telemetry = self.make_stack()
        collector.scrape(0.0)
        for _ in range(FAILURE_THRESHOLD):
            boards[0].record_failure(2, 1.0)
        collector.scrape(1.0)
        text = telemetry.dashboard()
        assert "BREAKERS (2 client boards)" in text
        assert "open history" in text

    def test_dashboard_omits_section_without_breaker_series(self):
        from repro.kvstore import KeyValueCluster
        from repro.obs import FleetTelemetry, TelemetryCollector, TimeSeriesStore

        cluster = KeyValueCluster(ClusterConfig(storage_nodes=3, seed=2))
        store = TimeSeriesStore()
        collector = TelemetryCollector(store, cluster=cluster)
        collector.scrape(0.0)
        assert "BREAKERS" not in FleetTelemetry(store, collector).dashboard()
