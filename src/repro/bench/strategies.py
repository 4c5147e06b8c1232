"""Execution-strategy comparison (Figure 12).

The paper compares three variants of the PIQL execution engine on TPC-W
running on a 10-node cluster with 5 client machines: the Lazy executor (one
tuple per request), the Simple executor (batched requests using the
compiler's limit hints, issued sequentially), and the Parallel executor
(batched requests issued in parallel).  The result — Parallel < Simple <
Lazy at the 99th percentile — demonstrates the value of both limit-hint
batching and intra-query parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..execution.context import ExecutionStrategy
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import loaded_database
from .harness import ClientSimulationConfig, run_workload
from .reporting import format_table


@dataclass
class StrategyMeasurement:
    """99th-percentile interaction latency for one execution strategy."""

    strategy: str
    p99_latency_ms: float
    mean_latency_ms: float
    throughput: float


SEED = 23


@dataclass
class ExecutorStrategyConfig:
    """Setup of the Figure 12 experiment (10 storage nodes, 5 clients)."""

    storage_nodes: int = 10
    client_machines: int = 5
    threads_per_client: int = 4
    interactions_per_thread: int = 20
    users_per_node: int = 60
    items_total: int = 600


def run(config: ExecutorStrategyConfig) -> List[StrategyMeasurement]:
    """Run the same TPC-W workload under the three execution strategies."""
    db, workload = loaded_database(
        TpcwWorkload(),
        storage_nodes=config.storage_nodes,
        data_nodes=config.storage_nodes,
        users_per_node=config.users_per_node,
        items_total=config.items_total,
        seed=SEED,
    )
    measurements: List[StrategyMeasurement] = []
    for strategy in (
        ExecutionStrategy.LAZY,
        ExecutionStrategy.SIMPLE,
        ExecutionStrategy.PARALLEL,
    ):
        # Paired comparison: every strategy sees the same service-time
        # noise streams, so the measured differences come from the
        # executor's request shape (batching, parallelism), not from
        # which run happened to draw the stragglers.
        db.cluster.reseed_latency_models(SEED)
        measurement = run_workload(
            db,
            workload,
            ClientSimulationConfig(
                client_machines=config.client_machines,
                threads_per_client=config.threads_per_client,
                interactions_per_thread=config.interactions_per_thread,
                strategy=strategy,
                seed=SEED,
            ),
        )
        measurements.append(
            StrategyMeasurement(
                strategy=strategy.value,
                p99_latency_ms=measurement.latency_percentile_ms(0.99),
                mean_latency_ms=measurement.mean_latency_ms(),
                throughput=measurement.throughput,
            )
        )
    return measurements


# ----------------------------------------------------------------------
# The experiment record
# ----------------------------------------------------------------------
def _rows(measurements: List[StrategyMeasurement]) -> List[tuple]:
    return [
        (m.strategy, round(m.p99_latency_ms, 1), round(m.mean_latency_ms, 1),
         round(m.throughput, 1))
        for m in measurements
    ]


def _check(measurements: List[StrategyMeasurement]) -> None:
    p99 = {m.strategy: m.p99_latency_ms for m in measurements}
    claim("fig12: Parallel beats Simple beats Lazy at the 99th percentile",
          p99["parallel"] < p99["simple"] < p99["lazy"], p99)
    # Both contribute meaningfully (>15% each).
    claim("fig12: limit-hint batching cuts the 99th percentile by over 15%",
          p99["simple"] < 0.85 * p99["lazy"], p99)
    claim("fig12: intra-query parallelism cuts the 99th percentile by over 15%",
          p99["parallel"] < 0.85 * p99["simple"], p99)


def _render(measurements: List[StrategyMeasurement]) -> str:
    table = format_table(
        ["strategy", "p99 RT (ms)", "mean RT (ms)", "WIPS"], _rows(measurements)
    )
    return (
        "Figure 12 — TPC-W 99th-percentile response time by execution "
        f"strategy\n{table}\n"
        "paper: lazy 639 ms, simple 451 ms, parallel 331 ms"
    )


EXPERIMENTS = (
    Experiment(
        name="fig12_executors",
        config=ExecutorStrategyConfig(interactions_per_thread=15, users_per_node=40),
        quick=ExecutorStrategyConfig(
            storage_nodes=6, client_machines=2, threads_per_client=2,
            interactions_per_thread=6, users_per_node=20, items_total=150,
        ),
        run=run,
        payload=lambda measurements: {"rows": _rows(measurements)},
        check=_check,
        render=_render,
    ),
)
