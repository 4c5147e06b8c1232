#!/usr/bin/env python
"""Query tracing: span trees, EXPLAIN ANALYZE, and Chrome-trace export.

Every query (and every write, with everything the write triggers — index
maintenance, hinted handoff, materialized-view deltas) records a span tree
while tracing is enabled:

1. ``db.enable_tracing()`` attaches a tracer to the storage client; spans
   propagate through sessions (gathers become ``gather``/``branch`` spans),
   executor operators, and down to individual key/value RPCs;
2. ``render_span_tree`` dumps any recorded tree — the example renders a
   pipelined TPC-W web interaction, where the sibling branches of each
   gather and the coalesced point reads are visible structurally;
3. ``db.explain_analyze(sql, params)`` is the one-call version: it runs the
   query traced and prints the physical plan with observed operations, each
   operator's slice of the static bound, and observed latency per operator;
4. ``write_chrome_trace`` exports recorded trees to the Chrome trace-event
   format — open chrome://tracing (or https://ui.perfetto.dev) and load the
   file to see the interaction on a timeline;
5. ``analyze_trace`` partitions a finished tree's latency into exclusive
   segment classes (critical-path analysis), and a ``FlightRecorder``
   attached to the bound auditor retains the traces worth explaining —
   the latency-forensics layer the chaos soak's incident reports build on.

Run with ``PYTHONPATH=src python examples/tracing_demo.py``.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro import ClusterConfig, PiqlDatabase
from repro.obs import (
    CriticalPathAggregator,
    FlightRecorder,
    ForensicsConfig,
    analyze_trace,
    render_span_tree,
    write_chrome_trace,
)
from repro.workloads import TpcwWorkload, WorkloadScale
from repro.workloads.tpcw.queries import NEW_PRODUCTS_WI

SEED = 11


def fresh_tpcw():
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=SEED))
    workload = TpcwWorkload()
    workload.setup(
        db,
        WorkloadScale(
            storage_nodes=2, users_per_node=20, items_total=200, seed=SEED
        ),
    )
    db.reset_measurements()
    return db, workload


def main() -> None:
    db, workload = fresh_tpcw()
    tracer = db.enable_tracing()

    # --- one pipelined web interaction, as a span tree --------------------
    rng = random.Random(SEED)
    plan = workload.interaction_plan(db, rng)
    tracer.clear()
    result = workload.run_plan(db, plan, session=db.session())
    print(
        f"TPC-W interaction {result.name!r}: {result.latency_ms:.2f} ms, "
        f"{result.operations} k/v operations, {result.rpcs} RPCs\n"
    )
    for root in tracer.roots:
        print(render_span_tree(root))
        print()

    # --- EXPLAIN ANALYZE on the New Products multi-join -------------------
    # Observed operations per operator, the operator's slice of the static
    # bound, and simulated latency, straight off the span tree.
    print(db.explain_analyze(NEW_PRODUCTS_WI, {"subject": "COMPUTERS"}))
    print()

    # --- the runtime bound auditor is always on ---------------------------
    print(
        f"bound auditor: {db.auditor.audited} queries audited, "
        f"{db.auditor.violations} static-bound violations\n"
    )

    # --- critical path: where did the interaction's time go? --------------
    print("critical-path breakdown (exclusive segment classes):")
    for root in tracer.roots:
        breakdown = analyze_trace(root)
        print(f"  {breakdown.describe()}")
        assert abs(sum(breakdown.shares.values()) - 1.0) <= 1e-6, (
            "a breakdown's shares do not partition its trace"
        )
    print()

    # --- flight recorder: keep the traces worth explaining ----------------
    # Attach a tail-based recorder to the shared bound auditor, replay a
    # batch of interactions, and show what it decided to retain.  With no
    # trained latency model the "slow" predicate is off, so retention here
    # comes from the healthy-baseline reservoir — chaos runs add fault and
    # breaker windows on top (see results/incident_report.json).
    aggregator = CriticalPathAggregator()
    recorder = FlightRecorder(
        ForensicsConfig(reservoir_interval=20), aggregator=aggregator
    )
    db.auditor.recorder = recorder
    for _ in range(60):
        plan = workload.interaction_plan(db, rng)
        workload.run_plan(db, plan, session=db.session())
    db.auditor.recorder = None
    print(recorder.describe())
    assert recorder.traces, "the flight recorder retained nothing"
    for trace in recorder.traces[:3]:
        reasons = ",".join(trace.reasons)
        print(
            f"  {trace.trace_id}  {trace.latency_seconds * 1000.0:7.2f} ms "
            f"[{reasons}]  {trace.query_class[:60]}"
        )
    print("\nper-query-class profiles (time-weighted mean shares):")
    for profile in aggregator.profiles()[:4]:
        print(f"  {profile.describe()}")
        assert abs(sum(profile.mean_shares.values()) - 1.0) <= 1e-6, (
            "a profile's mean shares do not sum to one"
        )
    print()

    # --- Chrome trace-event export ----------------------------------------
    out = Path("results")
    out.mkdir(exist_ok=True)
    path = out / "tpcw_interaction_trace.json"
    write_chrome_trace(str(path), tracer.roots)
    print(
        f"wrote {len(tracer.roots)} span trees to {path} — load it in "
        "chrome://tracing or https://ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
