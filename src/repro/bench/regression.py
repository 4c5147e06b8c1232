"""The bench-regression gate: the quick suite must reproduce its baseline.

The quick suite runs entirely in simulated time with seeded RNG streams, so
on unchanged code it reproduces every number bit for bit.  The gate is
therefore equality: any metric that differs from the committed baseline, is
missing from the run or is new in it fails, whatever its direction or size.
A change that moves a simulated number on purpose re-baselines and names
the move.

Summary schema (``bench-summary/v1``)::

    {
      "schema": "bench-summary/v1",
      "benches": {
        "quick_query":   {"mean_operations": 4.0, "mean_latency_ms": 4.27, ...},
        "quick_serving": {"throughput_per_second": 35.0, "p99_ms": 83.2, ...},
        ...
      }
    }

CLI::

    python -m repro.bench.regression --baseline benchmarks/baselines/BENCH_summary.json
    python -m repro.bench.regression --write-baseline benchmarks/baselines/BENCH_summary.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List, Optional

SCHEMA = "bench-summary/v1"


def run_quick_suite(telemetry_path: Optional[str] = None) -> Dict[str, object]:
    """Four small, seeded, simulated-time benches, as one summary.

    ``quick_query``: compile-once/execute-many microbench of a bounded point
    query (operation count and simulated latency are exact model outputs).
    ``quick_serving``: a short closed-loop serving window with telemetry
    enabled — headline throughput/latency/compliance, plus the scrape
    loop's own health.  When ``telemetry_path`` is given the run's
    telemetry artifact is written there (the CI job uploads it).
    ``quick_storage``: the storage-engine experiment's CI configuration —
    dict/LSM parity, per-query latency across the cardinality sweep,
    acked-write recovery, and budgeted bulk-load spills.
    ``quick_chaos``: the chaos soak's CI configuration at one fixed seed —
    the five hard invariants (as 0/1 gauges and raw counts) plus the
    paired naive-vs-resilient partition-window failure counts.
    """
    from ..prediction.slo import ServiceLevelObjective
    from ..workloads.scadr.workload import ScadrWorkload
    from .fixtures import loaded_database, serve

    seed = 29
    benches: Dict[str, Dict[str, float]] = {}
    db, workload = loaded_database(
        ScadrWorkload(
            thoughts_per_user=5, subscriptions_per_user=3, max_subscriptions=10
        ),
        storage_nodes=4, node_capacity_ops_per_second=600.0, users_per_node=20,
        seed=seed,
    )

    # --- quick_query: the bounded thoughtstream query, repeated ---------
    query = workload.query_names()[0]
    prepared = db.prepare(workload.query_sql(query))
    rng = random.Random(seed)
    db.reset_measurements()
    runs = 50
    results = [
        prepared.execute(workload.sample_parameters(query, rng)) for _ in range(runs)
    ]
    benches["quick_query"] = {
        "runs": float(runs),
        "mean_operations": sum(result.operations for result in results) / runs,
        "mean_latency_ms": sum(result.latency_seconds for result in results)
        / runs * 1000.0,
        "bound_operations": float(prepared.operation_bound),
    }

    # --- quick_serving: closed-loop window with telemetry ---------------
    db.reset_measurements()
    slo = ServiceLevelObjective(quantile=0.99, latency_seconds=0.2, interval_seconds=2.0)
    served = serve(
        db, workload, clients=15, think_time_seconds=0.4, duration_seconds=8.0,
        slo=slo, telemetry_enabled=True, seed=seed,
    )
    report = served.report
    if telemetry_path is not None:
        report.telemetry.save(telemetry_path)
    benches["quick_serving"] = {
        **served.headline(),
        "availability": report.availability,
        "overall_compliance": report.overall_compliance,
        "mean_utilization": report.mean_utilization,
        "audited": float(report.audited),
        "bound_violations": float(report.bound_violations),
        "telemetry_scrapes": float(report.telemetry.collector.scrapes),
    }
    # --- quick_storage: storage-engine parity / recovery / budgets ------
    from . import storage_engine

    storage = storage_engine.run(storage_engine.StorageEngineConfig.quick())
    sweep, recovery = storage["sweep"], storage["recovery"]
    benches["quick_storage"] = {
        "parity_identical": 1.0 if storage["parity"]["identical"] else 0.0,
        "sweep_latency_ratio": storage["sweep_latency_ratio"],
        "get_mean_ms_smallest": sweep[0]["get_mean_ms"],
        "get_mean_ms_largest": sweep[-1]["get_mean_ms"],
        "peak_memtable_bytes": float(
            max(point["peak_memtable_bytes"] for point in sweep)
        ),
        "recovery_acknowledged": float(recovery["acknowledged"]),
        "recovery_lost": float(recovery["lost"]),
        "recovery_oracle_match": 1.0 if recovery["oracle_match"] else 0.0,
        "bulk_spill_count": float(storage["bulk"]["spill_count"]),
    }
    # --- quick_chaos: one seeded soak, both arms ------------------------
    from .chaos import ChaosSoakConfig, run_chaos_soak

    chaos = run_chaos_soak(ChaosSoakConfig().quick())
    resilient, naive = chaos.arms["resilient"], chaos.arms["naive"]
    benches["quick_chaos"] = {
        "invariants_hold": 1.0 if chaos.holds else 0.0,
        "acknowledged": float(resilient.audit["acknowledged"]),
        "lost": float(resilient.audit["lost"]),
        "bound_violations": float(resilient.report.bound_violations),
        "ryw_violations": float(resilient.ryw_violations),
        "post_heal_divergence": float(resilient.post_heal_divergence),
        "availability": resilient.report.availability,
        "naive_window_failures": float(naive.window_failures),
        "resilient_window_failures": float(resilient.window_failures),
        "retries": resilient.resilience_counters["resilience.retries"],
        "timeouts": resilient.resilience_counters["resilience.timeouts"],
    }
    return {"schema": SCHEMA, "benches": benches}


def _values(summary: Dict[str, object]) -> Dict[str, object]:
    """A summary's schema and every ``bench.metric``, as one flat map."""
    values: Dict[str, object] = {"schema": summary["schema"]}
    for bench, metrics in summary["benches"].items():
        for metric, value in metrics.items():
            values[f"{bench}.{metric}"] = value
    return values


def diff(current: Dict[str, object], baseline: Dict[str, object]) -> List[str]:
    """One line, with both values, per metric of ``current`` that differs
    from ``baseline``, is missing or is new; empty when they are equal."""
    now, was = _values(current), _values(baseline)
    lines = []
    for name in sorted(now.keys() | was.keys()):
        before, after = was.get(name, "absent"), now.get(name, "absent")
        if before != after:
            lines.append(f"{name}: baseline {before}, current {after}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the quick suite and diff it against a baseline, exactly."
    )
    modes = parser.add_mutually_exclusive_group(required=True)
    modes.add_argument(
        "--baseline", metavar="PATH",
        help="exit 1, printing each difference, unless the run equals this baseline",
    )
    modes.add_argument(
        "--write-baseline", metavar="PATH", help="write the run as the new baseline"
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="also write the serving run's telemetry artifact here",
    )
    args = parser.parse_args(argv)
    summary = run_quick_suite(telemetry_path=args.telemetry_out)
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline: {args.write_baseline}")
        return 0
    with open(args.baseline, "r", encoding="utf-8") as handle:
        differences = diff(summary, json.load(handle))
    print("\n".join(differences) or f"ok: every metric equals {args.baseline}")
    return 1 if differences else 0

if __name__ == "__main__":
    sys.exit(main())
