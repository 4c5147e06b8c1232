#!/usr/bin/env python
"""Serving-tier demo: 50 concurrent application servers against one cluster.

Walks the serving subsystem end to end on the SCADr workload:

1. closed-loop traffic at three think-time levels — watch p99 climb as the
   offered load approaches the storage nodes' capacity;
2. an open-loop overload with admission control — the controller sheds a
   fraction of arrivals and the admitted requests stay near the SLO;
3. a saturated closed loop with the autoscaler — capacity is added instead
   of work being refused, and throughput rises with it.

Run with ``PYTHONPATH=src python examples/serving_sim.py``.
"""

from __future__ import annotations

from repro import ClusterConfig, PiqlDatabase
from repro.bench.reporting import format_table
from repro.prediction.slo import ServiceLevelObjective
from repro.serving import AutoscaleConfig, ServingConfig, run_serving_simulation
from repro.workloads import ScadrWorkload, WorkloadScale

SLO = ServiceLevelObjective(quantile=0.99, latency_seconds=0.1, interval_seconds=5.0)


def fresh_database():
    db = PiqlDatabase.simulated(
        ClusterConfig(storage_nodes=4, node_capacity_ops_per_second=400.0, seed=11)
    )
    workload = ScadrWorkload(thoughts_per_user=10, subscriptions_per_user=5)
    workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=40, seed=11))
    return db, workload


def closed_loop_ramp() -> None:
    print("== closed loop: 50 clients, shrinking think time ==")
    db, workload = fresh_database()
    rows = []
    for think in (2.0, 0.5, 0.1):
        report = run_serving_simulation(
            db,
            workload,
            ServingConfig(
                mode="closed",
                clients=50,
                think_time_seconds=think,
                duration_seconds=10.0,
                slo=SLO,
                seed=2,
            ),
        )
        rows.append(
            (
                f"{think * 1000:.0f} ms",
                report.completed,
                f"{report.throughput:.0f}/s",
                report.response_percentile_ms(0.50),
                report.response_percentile_ms(0.99),
                report.mean_utilization,
            )
        )
    print(
        format_table(
            ["think time", "completed", "throughput", "p50 ms", "p99 ms", "util"],
            rows,
        )
    )
    print()


def open_loop_overload() -> None:
    print("== open loop overload: admission control on/off ==")
    rows = []
    for admission in (False, True):
        db, workload = fresh_database()
        report = run_serving_simulation(
            db,
            workload,
            ServingConfig(
                mode="open",
                clients=50,
                arrival_rate_per_second=140.0,
                duration_seconds=15.0,
                slo=SLO,
                admission=admission,
                seed=2,
            ),
        )
        shed = report.admission.shed if report.admission else 0
        rows.append(
            (
                "on" if admission else "off",
                report.completed,
                shed,
                report.response_percentile_ms(0.99),
                report.overall_compliance,
            )
        )
    print(
        format_table(
            ["admission", "completed", "shed", "p99 ms", "SLO compliance"], rows
        )
    )
    print()


def closed_loop_autoscale() -> None:
    print("== saturated closed loop: autoscaler adds storage nodes ==")
    scaling = AutoscaleConfig(
        high_utilization=0.7, low_utilization=0.15, cooldown_seconds=3.0
    )
    for autoscale in (False, True):
        db, workload = fresh_database()
        report = run_serving_simulation(
            db,
            workload,
            ServingConfig(
                mode="closed",
                clients=100,
                think_time_seconds=0.05,
                duration_seconds=30.0,
                slo=SLO,
                autoscale=scaling if autoscale else None,
                seed=2,
            ),
        )
        label = "on " if autoscale else "off"
        print(
            f"  autoscale {label}: {report.throughput:5.0f} interactions/s, "
            f"p99 {report.response_percentile_ms(0.99):6.0f} ms, "
            f"utilisation {report.mean_utilization:.2f}, "
            f"{report.final_nodes} nodes"
        )
        for action in report.scaling_actions:
            print(
                f"    t={action.time:5.1f}s  {action.action}  -> "
                f"{action.nodes_after} nodes "
                f"(mean utilisation was {action.utilization:.2f})"
            )


def main() -> None:
    print(
        f"SLO: {SLO.quantile:.0%} of interactions under {SLO.latency_ms:.0f} ms "
        f"per {SLO.interval_seconds:.0f} s interval\n"
    )
    closed_loop_ramp()
    open_loop_overload()
    closed_loop_autoscale()


if __name__ == "__main__":
    main()
