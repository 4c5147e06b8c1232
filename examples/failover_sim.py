#!/usr/bin/env python
"""Failover demo: a 50-client TPC-W run that survives a node crash.

The cluster keeps three real replicas of every key (consistent-hashing
placement) and serves reads/writes at quorum ``R=W=2``, so killing any
single node mid-run must not fail a request or lose an acknowledged
write — it just gets slower while the survivors carry the extra load:

1. t=0s   healthy: four nodes, SLO comfortably met;
2. t=10s  node 1 crashes — reads fail over to the surviving replicas and
   writes that miss the dead replica are buffered as hints;
3. t=22s  node 1 recovers — hints are replayed, anti-entropy repair
   re-syncs the replica, and p99 returns to its healthy level.

Run with ``PYTHONPATH=src python examples/failover_sim.py``.
"""

from __future__ import annotations

from repro import ClusterConfig, PiqlDatabase
from repro.bench.reporting import format_table
from repro.prediction.slo import ServiceLevelObjective
from repro.replication import crash_recover_timeline
from repro.serving import ServingConfig, run_serving_simulation
from repro.stats import nearest_rank_percentile as percentile
from repro.workloads import TpcwWorkload, WorkloadScale

SLO = ServiceLevelObjective(quantile=0.99, latency_seconds=0.1, interval_seconds=4.0)

CRASH_AT = 10.0
RECOVER_AT = 22.0
DURATION = 34.0


def main() -> None:
    db = PiqlDatabase.simulated(
        ClusterConfig(
            storage_nodes=4,
            replication=3,
            read_quorum=2,
            write_quorum=2,
            node_capacity_ops_per_second=400.0,
            seed=7,
        )
    )
    workload = TpcwWorkload()
    workload.setup(
        db, WorkloadScale(storage_nodes=2, users_per_node=30, items_total=100,
                          seed=7)
    )
    print(
        f"cluster: 4 nodes, replication=3, R=W=2 — node 1 crashes at "
        f"t={CRASH_AT:.0f}s, recovers at t={RECOVER_AT:.0f}s"
    )
    print(
        f"SLO: {SLO.quantile:.0%} of interactions under {SLO.latency_ms:.0f} ms "
        f"per {SLO.interval_seconds:.0f} s interval\n"
    )

    report = run_serving_simulation(
        db,
        workload,
        ServingConfig(
            mode="closed",
            clients=50,
            think_time_seconds=0.6,
            duration_seconds=DURATION,
            slo=SLO,
            faults=crash_recover_timeline(1, CRASH_AT, RECOVER_AT),
            seed=2,
        ),
    )

    phases = [
        ("before crash", 0.0, CRASH_AT),
        ("during crash", CRASH_AT, RECOVER_AT),
        ("after recovery", RECOVER_AT + 2.0, DURATION),
    ]
    rows = []
    for name, start, end in phases:
        responses = [
            record.response_seconds
            for record in report.log.records
            if start <= record.arrival_seconds < end
        ]
        if not responses:
            rows.append((name, 0, 0.0, 0.0, 1.0))
            continue
        compliant = sum(1 for value in responses if value <= SLO.latency_seconds)
        rows.append(
            (
                name,
                len(responses),
                percentile(responses, 0.50) * 1000.0,
                percentile(responses, 0.99) * 1000.0,
                compliant / len(responses),
            )
        )
    print(
        format_table(
            ["phase", "completed", "p50 ms", "p99 ms", "SLO compliance"], rows
        )
    )

    print(
        f"\navailability: {report.availability:.4f} "
        f"({report.completed} completed, {report.failed} failed)"
    )
    for event in report.fault_events:
        print(
            f"  t={event.time:5.1f}s  {event.kind:<8} node {event.node_id}"
            f"  ({event.detail or 'applied'})"
        )
    if report.repair is not None:
        summary = report.repair.summary()
        print(
            f"recovery repair: {summary['hints_replayed']} hinted writes "
            f"replayed, {summary['keys_copied']} records re-replicated "
            f"({summary['bytes_copied']} bytes)"
        )


if __name__ == "__main__":
    main()
