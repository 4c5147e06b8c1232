#!/usr/bin/env python
"""TPC-W online bookstore: every customer web interaction, end to end.

Loads a scaled-down TPC-W dataset, compiles all nine customer-facing queries
of Table 1 (creating the same secondary indexes the paper lists), runs a
short burst of the ordering mix, and prints per-query latencies together
with their static operation bounds.

Run with ``python examples/tpcw_store.py``.
"""

from __future__ import annotations

import random

from repro import ClusterConfig, PiqlDatabase
from repro.bench.reporting import format_table
from repro.stats import nearest_rank_percentile as percentile
from repro.workloads import TpcwWorkload, WorkloadScale
from repro.workloads.tpcw.queries import QUERY_MODIFICATIONS


def main() -> None:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10, seed=21))
    workload = TpcwWorkload()
    workload.setup(db, WorkloadScale(storage_nodes=4, users_per_node=100,
                                     items_total=500))
    rng = random.Random(3)

    print("indexes created for scale-independent execution:")
    for index in db.catalog.indexes():
        print("  ", index.describe())

    rows = []
    for name in workload.query_names():
        prepared = db.prepare(workload.query_sql(name))
        latencies = [
            workload.run_query(db, name, rng).latency_seconds for _ in range(60)
        ]
        rows.append(
            (
                name,
                QUERY_MODIFICATIONS[name],
                prepared.operation_bound,
                round(percentile(latencies, 0.5) * 1000, 1),
                round(percentile(latencies, 0.99) * 1000, 1),
            )
        )
    print("\nper-query cost (simulated):")
    print(format_table(
        ["query", "modifications", "op bound", "median (ms)", "p99 (ms)"], rows
    ))

    print("\nrunning 200 web interactions of the ordering mix ...")
    interactions = [workload.interaction(db, rng) for _ in range(200)]
    latencies = [i.latency_seconds for i in interactions]
    updates = sum(
        1 for i in interactions
        if i.name in ("shopping_cart", "customer_registration", "buy_confirm")
    )
    print(f"  p50 = {percentile(latencies, 0.5) * 1000:.1f} ms, "
          f"p99 = {percentile(latencies, 0.99) * 1000:.1f} ms, "
          f"updates = {updates}/200")


if __name__ == "__main__":
    main()
