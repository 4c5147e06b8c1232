"""The bench-regression harness: a recorded perf trajectory with teeth.

Every benchmark in this repo writes free-form JSON under ``results/``; until
now nothing compared one run against the last, so a PR could silently halve
throughput and CI would stay green.  This module closes that gap:

* every benchmark result is **normalised** into one ``BENCH_summary.json``
  schema — bench name → flat ``metric: value`` map, stamped with the git
  SHA and a timestamp — either flattened out of ``results/*.json`` or
  produced directly by the deterministic **quick suite** below;
* a summary is **diffed against a committed baseline** with per-metric
  tolerance bands (direction-aware: latency regressing *up* fails,
  throughput regressing *down* fails), and the diff exits nonzero on any
  out-of-band move — the CI contract.

The quick suite runs entirely in simulated time with seeded RNG streams, so
its numbers are bit-stable on unchanged code: any drift against the
baseline is a real behavioural change, and the tolerance bands only exist
to absorb *intentional* small shifts (an optimisation PR re-baselines
deliberately, not accidentally).

Schema (``bench-summary/v1``)::

    {
      "schema": "bench-summary/v1",
      "git_sha": "abc123...",            # or "unknown" outside a checkout
      "timestamp": 1723000000.0,         # wall clock, ignored by the diff
      "benches": {
        "quick_serving": {"throughput_per_second": 93.5, "p99_ms": 7.1, ...},
        "quick_query":   {"operations": 2.0, "latency_ms": 1.94, ...}
      }
    }

CLI::

    python -m repro.bench.regression --quick --summary results/BENCH_summary.json
    python -m repro.bench.regression --emit-from-results results/ --summary ...
    python -m repro.bench.regression --summary X --baseline benchmarks/baselines/BENCH_summary.json
    python -m repro.bench.regression --quick --write-baseline benchmarks/baselines/BENCH_summary.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SCHEMA = "bench-summary/v1"

#: Direction + relative tolerance per metric-name fragment, first match
#: wins.  ``lower``: the metric regresses when it grows (latency, work);
#: ``higher``: regresses when it shrinks (throughput, compliance).  The
#: fallback band treats unknown metrics as informational (never failing)
#: so adding a new metric cannot break CI before a baseline knows it.
METRIC_RULES: Tuple[Tuple[Tuple[str, ...], str, float], ...] = (
    (("p50", "p99", "p90", "latency", "ms", "wait", "backlog"), "lower", 0.25),
    (("operations", "ops", "rpcs"), "lower", 0.10),
    (("throughput", "completed", "availability", "compliance", "speedup", "r2", "r_squared"), "higher", 0.15),
    (("utilization",), "lower", 0.40),
)


@dataclass(frozen=True)
class MetricRule:
    direction: str  # "lower" | "higher" | "info"
    tolerance: float


def classify_metric(name: str) -> MetricRule:
    """Which direction is better, and how much slack, for one metric name."""
    lowered = name.lower()
    for fragments, direction, tolerance in METRIC_RULES:
        if any(fragment in lowered for fragment in fragments):
            return MetricRule(direction, tolerance)
    return MetricRule("info", 0.0)


@dataclass(frozen=True)
class Regression:
    """One metric that moved outside its tolerance band."""

    bench: str
    metric: str
    baseline: float
    current: float
    direction: str
    tolerance: float

    @property
    def relative_change(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current != 0 else 0.0
        return (self.current - self.baseline) / abs(self.baseline)

    def describe(self) -> str:
        return (
            f"{self.bench}.{self.metric}: {self.baseline:.6g} -> "
            f"{self.current:.6g} ({self.relative_change:+.1%}, "
            f"{self.direction}-is-better, tolerance ±{self.tolerance:.0%})"
        )


# ----------------------------------------------------------------------
# Summary construction
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        return "unknown"


def make_summary(benches: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    return {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "timestamp": time.time(),
        "benches": benches,
    }


def flatten_numeric(payload: object, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of arbitrary JSON, as dotted paths.

    Lists index numerically (``series.0.p99``); booleans are skipped (they
    are flags, not measurements).
    """
    flat: Dict[str, float] = {}
    if isinstance(payload, bool):
        return flat
    if isinstance(payload, (int, float)):
        flat[prefix or "value"] = float(payload)
        return flat
    if isinstance(payload, dict):
        for key in sorted(payload):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_numeric(payload[key], child_prefix))
        return flat
    if isinstance(payload, list):
        for index, item in enumerate(payload):
            child_prefix = f"{prefix}.{index}" if prefix else str(index)
            flat.update(flatten_numeric(item, child_prefix))
        return flat
    return flat


#: A flattened results file claiming more metrics than this is a bulk
#: artifact (a trace, a telemetry dump), not a benchmark table.
_MAX_METRICS_PER_BENCH = 256


def _is_bench_payload(payload: object) -> bool:
    """Distinguish benchmark tables from other artifacts under results/.

    ``results/`` also collects Chrome trace exports (``traceEvents``) and
    telemetry dumps (``schema: fleet-telemetry/v1``); flattening those
    would bloat the summary with thousands of per-event "metrics" that are
    neither stable nor comparable.
    """
    if not isinstance(payload, dict):
        return False
    if "traceEvents" in payload:
        return False
    schema = payload.get("schema")
    if isinstance(schema, str) and not schema.startswith("bench-"):
        return False
    return True


def summary_from_results_dir(results_dir: str) -> Dict[str, object]:
    """One bench entry per ``results/*.json`` file, metrics flattened."""
    benches: Dict[str, Dict[str, float]] = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        # Only the committed-name summaries: quick-size and detail files sit
        # beside them (see repro.bench.experiment) and are not trajectory.
        if path.name == "BENCH_summary.json" or path.stem.endswith(
            (".quick", ".detail")
        ):
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not _is_bench_payload(payload):
            continue
        flat = flatten_numeric(payload)
        if flat and len(flat) <= _MAX_METRICS_PER_BENCH:
            benches[path.stem] = flat
    return make_summary(benches)


# ----------------------------------------------------------------------
# The deterministic quick suite
# ----------------------------------------------------------------------
def run_quick_suite(telemetry_path: Optional[str] = None) -> Dict[str, object]:
    """A small, seeded, simulated-time benchmark pair for CI.

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
    paired naive-vs-resilient partition-window failure counts.  Only
    ``availability`` is tolerance-judged; the invariant counts are
    informational here because the chaos CLI itself exits nonzero when
    any invariant fails.
    """
    from ..prediction.slo import ServiceLevelObjective
    from ..workloads.scadr.workload import ScadrWorkload
    from .fixtures import loaded_database, serve

    seed = 29
    db, workload = loaded_database(
        ScadrWorkload(
            thoughts_per_user=5, subscriptions_per_user=3, max_subscriptions=10
        ),
        storage_nodes=4,
        node_capacity_ops_per_second=600.0,
        users_per_node=20,
        seed=seed,
    )

    # --- quick_query: the bounded thoughtstream query, repeated ---------
    prepared = db.prepare(workload.query_sql(workload.query_names()[0]))
    import random as _random

    rng = _random.Random(seed)
    db.reset_measurements()
    runs = 50
    total_latency = 0.0
    total_operations = 0
    for _ in range(runs):
        result = prepared.execute(
            workload.sample_parameters(workload.query_names()[0], rng)
        )
        total_latency += result.latency_seconds
        total_operations += result.operations
    quick_query = {
        "runs": float(runs),
        "mean_operations": total_operations / runs,
        "mean_latency_ms": total_latency / runs * 1000.0,
        "bound_operations": float(prepared.operation_bound or 0),
    }

    # --- quick_serving: closed-loop window with telemetry ---------------
    db.reset_measurements()
    served = serve(
        db,
        workload,
        clients=15,
        think_time_seconds=0.4,
        duration_seconds=8.0,
        slo=ServiceLevelObjective(
            quantile=0.99, latency_seconds=0.2, interval_seconds=2.0
        ),
        telemetry_enabled=True,
        seed=seed,
    )
    report = served.report
    if telemetry_path is not None and report.telemetry is not None:
        report.telemetry.save(telemetry_path)
    quick_serving = {
        **served.headline(),
        "availability": report.availability,
        "overall_compliance": report.overall_compliance,
        "mean_utilization": report.mean_utilization,
        "audited": float(report.audited),
        "bound_violations": float(report.bound_violations),
        "telemetry_scrapes": float(
            report.telemetry.collector.scrapes if report.telemetry else 0
        ),
    }
    # --- quick_storage: storage-engine parity / recovery / budgets ------
    from . import storage_engine

    storage = storage_engine.run(storage_engine.StorageEngineConfig.quick())
    sweep, recovery = storage["sweep"], storage["recovery"]
    quick_storage = {
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
    resilient = chaos.arms["resilient"]
    naive = chaos.arms["naive"]
    quick_chaos = {
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
    return make_summary(
        {
            "quick_query": quick_query,
            "quick_serving": quick_serving,
            "quick_storage": quick_storage,
            "quick_chaos": quick_chaos,
        }
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare_summaries(
    current: Dict[str, object], baseline: Dict[str, object]
) -> List[Regression]:
    """Out-of-band metric moves of ``current`` relative to ``baseline``.

    Only metrics present in *both* summaries are judged: a brand-new bench
    or metric has no baseline to regress from, and a removed one is a
    review question, not a perf failure.
    """
    for summary, side in ((current, "current"), (baseline, "baseline")):
        if summary.get("schema") != SCHEMA:
            raise ValueError(
                f"{side} summary has schema {summary.get('schema')!r}, "
                f"expected {SCHEMA!r}"
            )
    regressions: List[Regression] = []
    current_benches = current.get("benches", {})
    for bench, base_metrics in sorted(baseline.get("benches", {}).items()):
        cur_metrics = current_benches.get(bench)
        if cur_metrics is None:
            continue
        for metric, base_value in sorted(base_metrics.items()):
            cur_value = cur_metrics.get(metric)
            if cur_value is None:
                continue
            rule = classify_metric(metric)
            if rule.direction == "info":
                continue
            band = abs(base_value) * rule.tolerance
            if rule.direction == "lower":
                failed = cur_value > base_value + band
            else:
                failed = cur_value < base_value - band
            if failed:
                regressions.append(
                    Regression(
                        bench=bench,
                        metric=metric,
                        baseline=float(base_value),
                        current=float(cur_value),
                        direction=rule.direction,
                        tolerance=rule.tolerance,
                    )
                )
    return regressions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_summary(summary: Dict[str, object], path: str) -> str:
    """Write a summary (or baseline) as stable, sorted JSON; returns path."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Normalise benchmark output and diff against a baseline."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the deterministic quick suite and use its summary",
    )
    parser.add_argument(
        "--emit-from-results", metavar="DIR",
        help="build the summary by flattening every results/*.json in DIR",
    )
    parser.add_argument(
        "--summary", metavar="PATH",
        help="write (with --quick/--emit-from-results) or read the summary here",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help="diff the summary against this committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--write-baseline", metavar="PATH",
        help="write the summary as the new committed baseline",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="with --quick: also write the serving run's telemetry artifact",
    )
    args = parser.parse_args(argv)

    summary: Optional[Dict[str, object]] = None
    if args.quick:
        summary = run_quick_suite(telemetry_path=args.telemetry_out)
    elif args.emit_from_results:
        summary = summary_from_results_dir(args.emit_from_results)
    elif args.summary:
        summary = _load(args.summary)
    if summary is None:
        parser.error("need --quick, --emit-from-results, or --summary")

    if (args.quick or args.emit_from_results) and args.summary:
        write_summary(summary, args.summary)
        print(f"wrote summary: {args.summary}")
    if args.write_baseline:
        write_summary(summary, args.write_baseline)
        print(f"wrote baseline: {args.write_baseline}")

    if args.baseline:
        baseline = _load(args.baseline)
        regressions = compare_summaries(summary, baseline)
        benches = summary.get("benches", {})
        judged = sum(
            1
            for bench, metrics in baseline.get("benches", {}).items()
            if bench in benches
            for metric in metrics
            if metric in benches[bench]
            and classify_metric(metric).direction != "info"
        )
        if regressions:
            print(f"PERF REGRESSION: {len(regressions)} of {judged} judged metrics out of band")
            for regression in regressions:
                print(f"  {regression.describe()}")
            return 1
        print(f"ok: {judged} judged metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
