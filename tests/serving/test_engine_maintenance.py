"""Serving-tier integration of the storage engine: background compaction
scheduled through the event kernel, and engine gauges in fleet telemetry.

A durable (LSM) cluster under a tiny memtable budget accumulates segment
runs during workload setup; the serving run must drain the compaction
backlog from its maintenance tick — free in the latency model — and the
telemetry scrape must expose per-node ``engine.*`` series that render as
the dashboard's STORAGE ENGINE table.  A dict-engine run must show none of
this (no maintenance tick, no engine series, no dashboard section).
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.serving import ServingConfig, ServingSimulation
from repro.workloads.base import InteractionResult, Workload, WorkloadScale


class PointLookupWorkload(Workload):
    """Minimal workload (mirrors conftest's, importable at module scope)."""

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


def _build_db(tmp_path, engine: str) -> PiqlDatabase:
    options = None
    if engine == "lsm":
        # A tiny budget forces many small flushes during workload setup, so
        # the run starts with a real compaction backlog.
        options = {
            "data_dir": str(tmp_path / "lsm"),
            "memtable_budget_bytes": 2048,
        }
    db = PiqlDatabase.simulated(
        ClusterConfig(
            storage_nodes=3,
            node_capacity_ops_per_second=500.0,
            seed=9,
            storage_engine=engine,
            engine_options=options,
        )
    )
    workload = PointLookupWorkload()
    workload.setup(db, WorkloadScale(storage_nodes=3))
    return db, workload


def _run(db, workload, duration: float = 4.0):
    config = ServingConfig(
        mode="closed",
        clients=6,
        think_time_seconds=0.1,
        duration_seconds=duration,
        telemetry_enabled=True,
        seed=2,
    )
    return ServingSimulation(db, workload, config).run()


def _backlog(db) -> int:
    """Pending compactions across every node's engine."""
    return sum(e.maintenance_backlog() for e in db.cluster.engines.values())


class TestLsmServingRun:
    @pytest.fixture(scope="class")
    def lsm_run(self, tmp_path_factory):
        db, workload = _build_db(tmp_path_factory.mktemp("engine"), "lsm")
        backlog_before = _backlog(db)
        report = _run(db, workload)
        yield db, report, backlog_before
        db.cluster.close()

    def test_kernel_drains_the_compaction_backlog(self, lsm_run):
        db, report, backlog_before = lsm_run
        assert backlog_before > 0
        assert _backlog(db) == 0
        counters = db.cluster.metrics.counters()
        assert counters["engine.compactions"] >= 1
        assert any(engine.compactions for engine in db.cluster.engines.values())

    def test_engine_gauges_are_scraped_per_node(self, lsm_run):
        db, report, _ = lsm_run
        store = report.telemetry.store
        label_sets = store.label_sets("engine.memtable_bytes")
        assert len(label_sets) == len(db.cluster.nodes)
        for name in (
            "engine.wal_bytes",
            "engine.segment_count",
            "engine.segment_bytes",
            "engine.compaction_backlog",
            "engine.compactions",
        ):
            assert store.label_sets(name), name
        labels = dict(label_sets[0])
        assert store.latest_value("engine.segment_count", labels) > 0
        # The backlog series must show the kernel's drain: its final value
        # is zero even though segments existed at the start.
        assert store.latest_value("engine.compaction_backlog", labels) == 0

    def test_dashboard_renders_storage_engine_section(self, lsm_run):
        _, report, _ = lsm_run
        dashboard = report.telemetry.dashboard()
        assert "STORAGE ENGINE" in dashboard
        assert "memtable" in dashboard
        assert "seg bytes" in dashboard

    def test_serving_results_unaffected_by_engine(self, lsm_run):
        _, report, _ = lsm_run
        assert report.log.completed > 0
        assert report.overall_compliance > 0.9


class TestDictServingRun:
    def test_dict_engine_stays_invisible(self, tmp_path):
        db, workload = _build_db(tmp_path, "dict")
        report = _run(db, workload, duration=2.0)
        store = report.telemetry.store
        # The dict engine reports only its resident-key gauge — none of the
        # durable machinery (memtable/WAL/segments) appears, so the
        # dashboard's STORAGE ENGINE table (keyed off memtable series) is
        # absent too.
        engine_series = {n for n in store.names() if n.startswith("engine.")}
        assert engine_series == {"engine.resident_keys"}
        assert "STORAGE ENGINE" not in report.telemetry.dashboard()
        assert report.log.completed > 0
