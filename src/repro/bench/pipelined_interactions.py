"""Pipelined-interactions benchmark: serial versus asynchronous sessions.

The PIQL performance argument (Section 7.1) makes each *query* internally
parallel; this experiment measures the next lever up — overlapping the
*independent queries of one web interaction* through the asynchronous
session API (``session.submit`` / ``session.gather``), so a TPC-W page
render pays the max of its branches instead of their sum.

Two phases, both on the TPC-W ordering mix:

* **paired replay** — one emulated application server replays the same
  sequence of interaction plans twice from the same seed on two fresh,
  identically seeded databases: once serially (stage latencies add) and
  once through a session (stages cost their slowest branch).  Because both
  arms issue exactly the same queries with the same parameters, the
  per-interaction *per-query operation counts must match exactly* — the
  static bounds are about work requested, and pipelining only changes how
  latencies compose.  The replay verifies that and yields the
  per-interaction-type speedups, of the means and paired sample by sample.
* **closed loop** — a think-time population drives the cluster through the
  serving tier's event kernel, once with classic blocking servers and once
  with pipelined servers.  This shows the end-to-end effect on response
  percentiles when many overlapped clients contend for the same storage
  nodes (closed loops also *complete more work* when responses get faster).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from statistics import median
from typing import Any, Dict, List, Tuple

from ..engine.database import PiqlDatabase
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import (
    ReplayRecord,
    loaded_database,
    replay,
    replay_percentile_ms,
    same_work,
    serve,
)

ARMS = ("serial", "pipelined")
#: The cluster at either size, the closed loop's think time, and the seed.
STORAGE_NODES = 6
NODE_CAPACITY_OPS_PER_SECOND = 4000.0
THINK_TIME_SECONDS = 0.5
SEED = 11


@dataclass(frozen=True)
class PipelinedInteractionsConfig:
    """Workload size and traffic of the comparison; the cluster shape is
    the module's constants."""

    users_per_node: int = 30
    items_total: int = 100
    #: Paired-replay phase: interactions replayed per arm by one server.
    replay_interactions: int = 400
    #: Closed-loop phase: population and horizon.
    clients: int = 30
    duration_seconds: float = 30.0

    def quick(self) -> "PipelinedInteractionsConfig":
        """A CI-smoke-sized variant (seconds of wall-clock time)."""
        return replace(
            self,
            users_per_node=10,
            items_total=50,
            replay_interactions=80,
            clients=10,
            duration_seconds=6.0,
        )


def replay_by_interaction(
    replays: Dict[str, List[ReplayRecord]]
) -> List[Dict[str, Any]]:
    """Per interaction type: count, mean latency in each arm, the speedup of
    the means, and the paired speedup.

    Both arms replay the same plans in the same order, so their records
    pair up one to one; the paired speedup is the median over a type's
    pairs of serial over pipelined latency.
    """
    pairs: Dict[str, List[Tuple[float, float]]] = {}
    for serial, pipelined in zip(*(replays[arm] for arm in ARMS)):
        pairs.setdefault(serial.name, []).append(
            (serial.latency_seconds, pipelined.latency_seconds)
        )
    rows = []
    for name in sorted(pairs):
        samples = pairs[name]
        count = len(samples)
        serial_ms = sum(s for s, _ in samples) / count * 1000.0
        pipelined_ms = sum(p for _, p in samples) / count * 1000.0
        rows.append(
            {
                "name": name,
                "count": count,
                "serial_mean_ms": serial_ms,
                "pipelined_mean_ms": pipelined_ms,
                "speedup": serial_ms / pipelined_ms if pipelined_ms > 0 else 1.0,
                "paired_speedup": median(
                    [s / p if p > 0 else 1.0 for s, p in samples]
                ),
            }
        )
    return rows


def _fresh_database(
    config: PipelinedInteractionsConfig,
) -> Tuple[PiqlDatabase, TpcwWorkload]:
    return loaded_database(
        TpcwWorkload(),
        storage_nodes=STORAGE_NODES,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=config.users_per_node,
        items_total=config.items_total,
        seed=SEED,
        reseed=True,
    )


def run_replay(
    config: PipelinedInteractionsConfig, pipelined: bool
) -> List[ReplayRecord]:
    db, workload = _fresh_database(config)
    return replay(
        db, workload, config.replay_interactions, SEED + 1,
        session=db.session() if pipelined else None,
    )


def run_closed_loop(
    config: PipelinedInteractionsConfig, pipelined: bool
) -> Dict[str, float]:
    db, workload = _fresh_database(config)
    served = serve(
        db,
        workload,
        clients=config.clients,
        think_time_seconds=THINK_TIME_SECONDS,
        duration_seconds=config.duration_seconds,
        pipelined=pipelined,
        seed=SEED,
    )
    coalesced = sum(
        server.db.client.stats.coalesced_reads
        for server in served.simulation.driver.servers
    )
    return {**served.headline(), "coalesced_reads": float(coalesced)}


def run(config: PipelinedInteractionsConfig) -> Dict[str, Any]:
    """Both phases for both arms; returns the summary that is saved."""
    replays = {arm: run_replay(config, arm == "pipelined") for arm in ARMS}
    return {
        "config": {
            **asdict(config),
            "storage_nodes": STORAGE_NODES,
            "node_capacity_ops_per_second": NODE_CAPACITY_OPS_PER_SECOND,
            "think_time_seconds": THINK_TIME_SECONDS,
            "seed": SEED,
        },
        "replay": {
            "operations_identical": same_work(
                replays["serial"], replays["pipelined"]
            ),
            "p50_ms": {
                arm: replay_percentile_ms(replays[arm], 0.50) for arm in ARMS
            },
            "p99_ms": {
                arm: replay_percentile_ms(replays[arm], 0.99) for arm in ARMS
            },
            "by_interaction": replay_by_interaction(replays),
        },
        "closed_loop": {
            arm: run_closed_loop(config, arm == "pipelined") for arm in ARMS
        },
    }


#: Interaction types whose plans have a stage of several independent queries.
MULTI_BRANCH = (
    "home", "order_display", "buy_request", "buy_confirm",
    "search_by_author", "search_by_title", "shopping_cart",
)


def check(result: Dict[str, Any]) -> None:
    # Bounds are per-query; gather only changes latency composition.
    claim("pipelined: both arms issue identical per-query operations",
          result["replay"]["operations_identical"])
    rows = result["replay"]["by_interaction"]
    speedups = {row["name"]: row["speedup"] for row in rows}
    for name in MULTI_BRANCH:
        if name in speedups:
            claim("pipelined: every multi-branch interaction type gets faster",
                  speedups[name] > 1.05, (name, speedups[name]))
    # Single-query interaction types can wobble a little either way: the
    # arms' service-time noise streams de-align after a coalesced read, and
    # one straggler draw (8x, 1.2% of RPCs) among a type's dozen samples
    # moves its mean by a third.  So this claim reads the paired median,
    # which a slowdown of every sample moves and one straggler does not.
    paired = {row["name"]: row["paired_speedup"] for row in rows}
    claim("pipelined: no interaction type gets meaningfully slower",
          all(speedup > 0.90 for speedup in paired.values()), paired)
    serial, pipelined = (result["closed_loop"][arm] for arm in ARMS)
    claim("pipelined: closed-loop p50 and p99 are strictly below serial",
          pipelined["p50_ms"] < serial["p50_ms"]
          and pipelined["p99_ms"] < serial["p99_ms"], (serial, pipelined))
    # Completions in a think-time-bound loop are dominated by the think
    # time, so the count only has to hold to within horizon-edge noise
    # (interactions in flight when the clock runs out differ a handful
    # either way between arms).
    claim("pipelined: a faster closed loop completes at least as much work",
          pipelined["completed"] >= 0.99 * serial["completed"])
    claim("pipelined: cross-query coalescing fires only in the pipelined arm",
          pipelined["coalesced_reads"] > 0 and serial["coalesced_reads"] == 0)


EXPERIMENTS = (
    Experiment(
        name="pipelined_interactions",
        config=PipelinedInteractionsConfig(),
        quick=PipelinedInteractionsConfig().quick(),
        run=run,
        payload=dict,
        check=check,
    ),
)
