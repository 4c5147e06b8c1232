#!/usr/bin/env python
"""Fleet telemetry: time-series, burn-rate alerts, and drift, live.

A four-node cluster serves a closed-loop point-lookup workload while the
telemetry collector scrapes the fleet every 500 ms of simulated time into
a fixed-memory time-series store.  Mid-run, two faults hit at once:

1. t=5s   node 1 crashes; node 2 silently degrades to 12x its normal
   service time (the nastier failure — it still answers, just slowly);
2. the SLO error budget starts burning; the fast/slow burn-rate pair
   crosses its threshold *during* the fault, fires an alert into the SLO
   monitor, and pre-arms the admission controller;
3. t=10s  both nodes repair — the fast window forgets the incident within
   seconds and the alert clears, while the time-series keep the whole
   story (the crash window, the backlog spike, the recovery).

The run ends by rendering the ASCII fleet dashboard — per-node sparklines,
the alert timeline, and the prediction-drift table (the fault hurt tail
latency, but the latency model's medians stayed truthful, so no class
drifts) — and writing the full telemetry artifact to ``results/``.

Run with ``PYTHONPATH=src python examples/telemetry_demo.py``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List

from repro import ClusterConfig, PiqlDatabase
from repro.obs import BurnRateRule
from repro.prediction.model import QueryLatencyModel
from repro.prediction.slo import ServiceLevelObjective
from repro.prediction.training import train_default_model
from repro.replication import FaultSpec
from repro.serving import ServingConfig, run_serving_simulation
from repro.workloads.base import InteractionResult, Workload, WorkloadScale

SEED = 9
FAULT_START = 5.0
FAULT_END = 10.0
DURATION = 16.0


class StatusLookupWorkload(Workload):
    """A tiny status-board service: every interaction is one point lookup."""

    name = "status-lookup"

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


def main() -> None:
    db = PiqlDatabase.simulated(
        ClusterConfig(
            storage_nodes=4, node_capacity_ops_per_second=400.0, seed=SEED
        )
    )
    workload = StatusLookupWorkload()
    workload.setup(db, WorkloadScale(storage_nodes=4))
    # A trained latency model turns the bound auditor into a drift feed:
    # every audited query's observed-vs-predicted residual lands in the
    # telemetry bundle's per-class drift detector.
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
    print(
        f"SLO: {slo.quantile:.0%} of interactions under "
        f"{slo.latency_ms:.2f} ms (healthy latency x1.5)"
    )
    print(
        f"faults: node 1 crashes and node 2 slows 12x at t={FAULT_START:.0f}s, "
        f"both repair at t={FAULT_END:.0f}s\n"
    )

    report = run_serving_simulation(
        db,
        workload,
        ServingConfig(
            mode="closed",
            clients=20,
            think_time_seconds=0.2,
            duration_seconds=DURATION,
            slo=slo,
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

    telemetry = report.telemetry

    # --- the incident, as the alerter saw it ------------------------------
    print("burn-rate alert timeline:")
    for alert in telemetry.alerts:
        print(f"  {alert.describe()}")
    for alert in telemetry.alerts:
        assert FAULT_START < alert.fired_at, "alert fired before the fault?"
        assert alert.cleared_at is not None, "alert never cleared"
    print()

    # --- the fleet dashboard ----------------------------------------------
    print(report.dashboard())
    print()

    # --- the artifact ------------------------------------------------------
    out = Path("results")
    out.mkdir(exist_ok=True)
    path = out / "telemetry_fault.json"
    telemetry.save(str(path))
    store = telemetry.store
    print(
        f"wrote {len(store)} series ({telemetry.collector.scrapes} scrapes) "
        f"to {path}"
    )


if __name__ == "__main__":
    main()
