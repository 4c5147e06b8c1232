"""Materialized-view maintenance benchmark: scale-independent precomputation.

Three phases prove the three claims of the view tier:

* **write amplification** — the same batch of order-line inserts is applied
  at increasing table cardinalities, with and without the
  ``best_sellers_by_subject`` view.  The per-insert maintenance cost (ops
  with view minus ops without) must be bounded by the static
  :func:`~repro.plans.bounds.write_operation_bound` and must not grow with
  cardinality;
* **correctness** — after a closed-loop run through the serving tier (order
  lines written by buy-confirm interactions under load), the best-sellers
  query is executed for every subject and its rows must be identical —
  values *and* order, including ties — to an offline recomputation of the
  view from the base tables; SCADr's per-user counts are checked the same
  way against the thought table;
* **bounded reads** — the restored best-sellers and thought-count queries
  execute as bounded view scans whose operation counts never exceed their
  statically predicted bounds and whose simulated latency stays flat as the
  order-line table grows by an order of magnitude (the query is rejected
  outright without the view — the paper's Table 1 omission).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Tuple

from ..engine.database import PiqlDatabase
from ..errors import NotScaleIndependentError
from ..plans.bounds import write_operation_bound
from ..views.maintenance import recompute_top_k, recompute_view
from ..workloads.scadr.workload import ScadrWorkload
from ..workloads.tpcw.schema import SUBJECTS
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import loaded_database, serve


#: The cluster at either size, the closed loop's think time, and the seed.
STORAGE_NODES = 6
NODE_CAPACITY_OPS_PER_SECOND = 4000.0
THINK_TIME_SECONDS = 0.3
SEED = 23


@dataclass(frozen=True)
class ViewMaintenanceConfig:
    """Data scales and traffic of the experiment; the cluster shape is the
    module's constants."""

    #: Data scales for the write-amplification / bounded-read sweep; the
    #: order-line table grows roughly linearly with users_per_node.
    scale_users_per_node: Tuple[int, ...] = (10, 30, 90)
    items_total: int = 300
    #: Probe inserts measured per scale point (fresh order ids).
    probe_inserts: int = 200
    #: Read probes per scale point.
    probe_reads: int = 60
    #: Serving-tier closed loop (correctness-under-load phase).
    clients: int = 30
    duration_seconds: float = 12.0
    #: SCADr correctness phase sizing.
    scadr_users_per_node: int = 40

    def quick(self) -> "ViewMaintenanceConfig":
        """A CI-smoke-sized variant (a few seconds of wall clock)."""
        return replace(
            self,
            scale_users_per_node=(8, 24),
            items_total=200,
            probe_inserts=60,
            probe_reads=20,
            clients=12,
            duration_seconds=5.0,
            scadr_users_per_node=20,
        )


@dataclass
class ViewScalePoint:
    """Measurements at one table cardinality."""

    users_per_node: int
    order_line_rows: int
    #: Mean key/value operations per probe insert, with/without the view.
    insert_ops_with_view: float
    insert_ops_without_view: float
    write_bound: int
    write_bound_base: int
    #: Best-sellers read probes.
    read_ops_max: int
    read_bound: int
    read_mean_latency_ms: float

    @property
    def maintenance_ops(self) -> float:
        return self.insert_ops_with_view - self.insert_ops_without_view


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def _tpcw(
    config: ViewMaintenanceConfig, users_per_node: int, views: bool
) -> Tuple[PiqlDatabase, TpcwWorkload]:
    return loaded_database(
        TpcwWorkload(materialized_views=views),
        storage_nodes=STORAGE_NODES,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=users_per_node,
        items_total=config.items_total,
        seed=SEED,
        reseed=True,
    )


# ----------------------------------------------------------------------
# Phase 1 + 3: write amplification and bounded reads across scales
# ----------------------------------------------------------------------
def _probe_inserts(
    config: ViewMaintenanceConfig, db: PiqlDatabase, base_order_id: int
) -> float:
    """Mean ops per order-line insert for a batch of fresh orders."""
    rng = random.Random(SEED + 17)
    view = db.new_client()
    before = view.client.stats.operations
    for offset in range(config.probe_inserts):
        view.insert(
            "order_line",
            {
                "OL_O_ID": base_order_id + offset,
                "OL_ID": 1,
                # Generated item ids are 1..items_total (data.py); an id
                # outside that range would miss the dimension fetch and
                # silently skip maintenance, biasing the measurement low.
                "OL_I_ID": rng.randrange(1, config.items_total + 1),
                "OL_QTY": rng.randrange(1, 5),
                "OL_DISCOUNT": 0.0,
                "OL_COMMENT": "",
            },
        )
    return (view.client.stats.operations - before) / config.probe_inserts


def run_scale_point(
    config: ViewMaintenanceConfig, users_per_node: int
) -> ViewScalePoint:
    db, workload = _tpcw(config, users_per_node, views=True)
    baseline_db, _ = _tpcw(config, users_per_node, views=False)
    order_line_rows = db.records.count("order_line")

    with_view = _probe_inserts(config, db, base_order_id=50_000_000)
    without_view = _probe_inserts(config, baseline_db, base_order_id=50_000_000)

    rng = random.Random(SEED + 5)
    reader = db.new_client()
    reader_prepared = reader.prepare(workload.query_sql("best_sellers_wi"))
    ops_max = 0
    latency = 0.0
    for _ in range(config.probe_reads):
        result = reader_prepared.execute(
            workload.sample_parameters("best_sellers_wi", rng)
        )
        ops_max = max(ops_max, result.operations)
        latency += result.latency_seconds
    return ViewScalePoint(
        users_per_node=users_per_node,
        order_line_rows=order_line_rows,
        insert_ops_with_view=with_view,
        insert_ops_without_view=without_view,
        write_bound=write_operation_bound(db.catalog, "order_line"),
        write_bound_base=write_operation_bound(
            baseline_db.catalog, "order_line"
        ),
        read_ops_max=ops_max,
        read_bound=reader_prepared.operation_bound,
        read_mean_latency_ms=latency / config.probe_reads * 1000.0,
    )


# ----------------------------------------------------------------------
# Phase 2: serving-tier load, then view-versus-recompute equivalence
# ----------------------------------------------------------------------
def run_serving_and_correctness(
    config: ViewMaintenanceConfig,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    db, workload = _tpcw(config, config.scale_users_per_node[0], views=True)
    report = serve(
        db,
        workload,
        clients=config.clients,
        think_time_seconds=THINK_TIME_SECONDS,
        duration_seconds=config.duration_seconds,
        seed=SEED,
    ).report
    by_name: Dict[str, int] = {}
    for record in report.log.records:
        by_name[record.name] = by_name.get(record.name, 0) + 1
    serving = {
        "completed": float(report.completed),
        "throughput_per_second": report.throughput,
        "p99_ms": report.response_percentile_ms(0.99),
        "best_sellers_served": float(by_name.get("best_sellers", 0)),
        "buy_confirms": float(by_name.get("buy_confirm", 0)),
    }

    # Offline ground truth from the post-load base tables.
    view = db.catalog.view("best_sellers_by_subject")
    recomputed = recompute_view(view, db.catalog, db.cluster)
    prepared = db.prepare(workload.query_sql("best_sellers_wi"))
    mismatches = 0
    compared = 0
    for subject in SUBJECTS:
        expected = [
            {"OL_I_ID": row["OL_I_ID"], "total_sold": row["total_sold"]}
            for row in recompute_top_k(view, recomputed, (subject,))
        ]
        actual = prepared.execute(subject=subject).rows
        compared += 1
        if actual != expected:
            mismatches += 1

    # SCADr: per-user counts against an offline recompute of thoughts.
    scadr_db, scadr = loaded_database(
        ScadrWorkload(materialized_views=True),
        storage_nodes=STORAGE_NODES,
        data_nodes=2,
        users_per_node=config.scadr_users_per_node,
        seed=SEED + 1,
    )
    rng = random.Random(SEED + 2)
    for _ in range(50):  # extra posts and retractions under the view
        owner = rng.choice(scadr.usernames)
        scadr_db.insert(
            "thoughts",
            {"owner": owner, "timestamp": 3_000_000_000 + rng.randrange(10**6),
             "text": "load"},
            upsert=True,
        )
    thought_view = scadr_db.catalog.view("user_thought_counts")
    thought_truth = recompute_view(thought_view, scadr_db.catalog, scadr_db.cluster)
    count_query = scadr_db.prepare(scadr.query_sql("thought_count"))
    scadr_mismatches = 0
    for (owner,), expected_row in thought_truth.items():
        rows = count_query.execute(uname=owner).rows
        if rows != [{"owner": owner,
                     "thought_count": expected_row["thought_count"]}]:
            scadr_mismatches += 1
    correctness = {
        "subjects_compared": compared,
        "best_sellers_mismatches": mismatches,
        "scadr_users_compared": len(thought_truth),
        "scadr_mismatches": scadr_mismatches,
    }
    return serving, correctness


# ----------------------------------------------------------------------
# Whole experiment
# ----------------------------------------------------------------------
def run(config: ViewMaintenanceConfig) -> Dict[str, Any]:
    """All phases; returns the summary that is saved."""
    # Without the view the query is rejected — the paper's omission.
    db, _ = _tpcw(config, config.scale_users_per_node[0], views=False)
    try:
        db.prepare(
            TpcwWorkload(materialized_views=True).query_sql("best_sellers_wi")
        )
        rejected = False
    except NotScaleIndependentError:
        rejected = True

    points = [
        run_scale_point(config, users) for users in config.scale_users_per_node
    ]
    serving, correctness = run_serving_and_correctness(config)
    return {
        "config": {
            **asdict(config),
            "storage_nodes": STORAGE_NODES,
            "node_capacity_ops_per_second": NODE_CAPACITY_OPS_PER_SECOND,
            "think_time_seconds": THINK_TIME_SECONDS,
            "seed": SEED,
        },
        "rejected_without_view": rejected,
        "scale_points": [
            {**asdict(p), "maintenance_ops": p.maintenance_ops} for p in points
        ],
        "serving": serving,
        "correctness": correctness,
    }


def check(result: Dict[str, Any]) -> None:
    claim("view_maintenance: best-sellers is rejected without the materialized view",
          result["rejected_without_view"])
    points = result["scale_points"]
    first, last = points[0], points[-1]
    # The order-line table grows with users per node (about 9x at full size).
    claim("view_maintenance: the sweep spans the cardinality range it claims",
          last["order_line_rows"] / first["order_line_rows"]
          >= 0.85 * last["users_per_node"] / first["users_per_node"],
          (first["order_line_rows"], last["order_line_rows"]))
    for point in points:
        claim("view_maintenance: an insert costs at most the static write bound",
              point["insert_ops_with_view"] <= point["write_bound"],
              f"{point['insert_ops_with_view']:.2f} > {point['write_bound']} at "
              f"{point['users_per_node']} users per node")
    # The largest scale may not cost more than the smallest plus rounding.
    maintenance = [p["maintenance_ops"] for p in points]
    claim("view_maintenance: per-write maintenance cost is independent of cardinality",
          max(maintenance) - min(maintenance) <= 1.0, maintenance)
    # The bounded view scan's ceiling is 1 range + top-k dereferences.
    claim("view_maintenance: the read bound is 51 operations at every cardinality",
          {p["read_bound"] for p in points} == {51})
    claim("view_maintenance: view scans stay within their static bound",
          all(p["read_ops_max"] <= p["read_bound"] for p in points))
    latencies = [p["read_mean_latency_ms"] for p in points]
    claim("view_maintenance: view-scan latency is flat across cardinalities",
          max(latencies) <= 2.0 * min(latencies) + 0.5, latencies)
    correctness, serving = result["correctness"], result["serving"]
    claim("view_maintenance: view scans equal offline recomputation",
          correctness["best_sellers_mismatches"] == 0
          and correctness["scadr_mismatches"] == 0
          and correctness["subjects_compared"] > 0, correctness)
    claim("view_maintenance: the serving tier exercised maintenance under load",
          serving["completed"] > 0 and serving["buy_confirms"] > 0, serving)


EXPERIMENTS = (
    Experiment(
        name="view_maintenance",
        config=ViewMaintenanceConfig(),
        quick=ViewMaintenanceConfig().quick(),
        run=run,
        payload=dict,
        check=check,
    ),
)
