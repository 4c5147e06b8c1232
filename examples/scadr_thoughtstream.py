#!/usr/bin/env python
"""SCADr walk-through: the paper's Figure 3 worked example plus the assistant.

Shows, for the micro-blogging benchmark SCADr:

* the initial, pushed-down logical and physical plans of the thoughtstream
  query (the three stages of Figure 3),
* how the cardinality constraint on subscriptions makes the plan bounded —
  and the Performance Insight Assistant's diagnosis when it is missing,
* the three execution strategies of Figure 12 on the same query.

Run with ``python examples/scadr_thoughtstream.py``.
"""

from __future__ import annotations

import random

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.plans.printer import plan_to_string
from repro.workloads.scadr.data import ScadrDataConfig, ScadrDataGenerator
from repro.workloads.scadr.queries import THOUGHTSTREAM
from repro.workloads.scadr.schema import scadr_ddl


def main() -> None:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10, seed=7))
    db.execute_ddl(scadr_ddl(max_subscriptions=100))
    generator = ScadrDataGenerator(
        ScadrDataConfig(users=500, thoughts_per_user=30, subscriptions_per_user=10)
    )
    generator.load(db)
    usernames = generator.usernames()

    # --- Figure 3: the stages of optimization --------------------------------
    print("=== (a) PIQL query ===")
    print(THOUGHTSTREAM.strip())
    print("\n=== (b) initial logical plan ===")
    print(plan_to_string(db.optimizer.initial_logical_plan(THOUGHTSTREAM)))
    print("\n=== (c) logical plan with stop / data-stop push-down ===")
    print(plan_to_string(db.optimizer.prepared_logical_plan(THOUGHTSTREAM)))
    prepared = db.prepare(THOUGHTSTREAM)
    print("\n=== (d) physical plan ===")
    print(plan_to_string(prepared.physical_plan))
    print(f"\nstatic bound: {prepared.operation_bound} key/value operations")

    # --- executing under the three strategies --------------------------------
    # A strategy is a property of a database view: one view per strategy,
    # all over the same cluster and schema.
    rng = random.Random(1)
    print("\n=== execution strategies (Figure 12, single query) ===")
    for strategy in ExecutionStrategy:
        view = db.new_client(strategy=strategy).prepare(THOUGHTSTREAM)
        latencies = [
            view.execute({"uname": rng.choice(usernames)}) for _ in range(50)
        ]
        p99 = sorted(r.latency_seconds for r in latencies)[int(0.99 * 50) - 1]
        print(f"{strategy.value:9s} p99 = {p99 * 1000:6.1f} ms   "
              f"operations = {latencies[0].operations}")

    # --- what happens without the cardinality constraint ---------------------
    print("\n=== Performance Insight Assistant ===")
    bare = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=8))
    bare.execute_ddl(
        scadr_ddl(100).replace("CARDINALITY LIMIT 100 (owner)", "note VARCHAR(10)")
    )
    print(bare.diagnose(THOUGHTSTREAM).render())


if __name__ == "__main__":
    main()
