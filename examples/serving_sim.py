#!/usr/bin/env python
"""Serving-tier demo: 50 concurrent application servers against one cluster.

Walks the serving subsystem end to end on the SCADr workload:

1. closed-loop traffic at three think-time levels — watch p99 climb as the
   offered load approaches the storage nodes' capacity;
2. an open-loop overload with admission control — the controller sheds a
   fraction of arrivals and the admitted requests stay near the SLO;
3. a saturated closed loop, with and without the autoscaler — each read
   is served at the replica of its key's group whose queue holds the least
   backlog, so no node's queue wait exceeds twice the mean, the mean
   utilisation crosses the autoscaler's scale-up mark, and the autoscaler
   adds nodes, lifts throughput and brings the last interval's p99 below
   the fixed cluster's (the run-wide p99 of both is the first interval's,
   when every client starts at once).  The headline is asserted, not
   assumed.

Run with ``PYTHONPATH=src python examples/serving_sim.py``.
"""

from __future__ import annotations

from repro import ClusterConfig, PiqlDatabase
from repro.bench.reporting import format_table
from repro.prediction.slo import ServiceLevelObjective
from repro.serving import AutoscaleConfig, ServingConfig, run_serving_simulation
from repro.workloads import ScadrWorkload, WorkloadScale

SLO = ServiceLevelObjective(quantile=0.99, latency_seconds=0.1, interval_seconds=5.0)
#: No node's queue wait may exceed this multiple of the mean node's: the
#: least-backlog replica choice spreads a hot group's reads over the group.
QUEUE_WAIT_SPREAD = 2.0


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
    scaling = AutoscaleConfig(
        high_utilization=0.7, low_utilization=0.15, cooldown_seconds=3.0
    )
    runs = []
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
        runs.append((autoscale, db.cluster.nodes, report))
    (_, nodes, fixed), (_, _, scaled) = runs
    # What the autoscaler does here, stated as the headline and held.
    waits = [node.stats.queue_wait_seconds for node in nodes]
    spread = max(waits) / (sum(waits) / len(waits))
    assert spread <= QUEUE_WAIT_SPREAD, waits
    assert scaled.scaling_actions, "the autoscaler never acted"
    assert all(action.action == "add" for action in scaled.scaling_actions)
    assert scaled.final_nodes > 4
    assert scaled.throughput > fixed.throughput
    tails = [run.windows[-1].quantile_seconds * 1000.0 for run in (fixed, scaled)]
    assert tails[1] < tails[0], tails
    print(
        f"== saturated closed loop: the autoscaler adds "
        f"{len(scaled.scaling_actions)} nodes, throughput rises "
        f"{fixed.throughput:.0f} -> {scaled.throughput:.0f}/s and the last "
        f"interval's p99 falls {tails[0]:.0f} -> {tails[1]:.0f} ms (busiest "
        f"node's queue wait {spread:.2f}x the mean <= {QUEUE_WAIT_SPREAD:.1f}x) =="
    )
    for autoscale, _, report in runs:
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
    # Each range is served by one replica of its group: no idle node.
    assert all(node.stats.range_requests > 0 for node in nodes)
    print(
        format_table(
            ["node (autoscale off)", "range requests", "range rows",
             "queue wait s"],
            [
                (
                    node.node_id,
                    node.stats.range_requests,
                    node.stats.range_rows,
                    round(node.stats.queue_wait_seconds),
                )
                for node in nodes
            ],
        )
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
