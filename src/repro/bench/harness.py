"""Benchmark harness: emulated clients issuing web interactions.

The paper's methodology (Section 8.4): one client machine with the PIQL
library for every two storage servers, ten concurrent threads per client,
throughput and response times collected over fixed intervals.  The harness
reproduces that shape in simulated time — every thread owns its own
simulated clock (it is a stateless application server), runs a fixed number
of interactions back to back, and throughput is interactions completed per
simulated second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine.database import PiqlDatabase
from ..execution.context import ExecutionStrategy
from ..stats import nearest_rank_percentile
from ..workloads.base import Workload


#: Cluster utilisation modelled during a run (drives queueing delay).
UTILIZATION = 0.30


@dataclass
class ClientSimulationConfig:
    """How many emulated application servers / threads to simulate."""

    client_machines: int = 5
    threads_per_client: int = 10
    interactions_per_thread: int = 25
    strategy: ExecutionStrategy = ExecutionStrategy.PARALLEL
    seed: int = 11


@dataclass
class RunMeasurement:
    """Aggregated measurements of one benchmark run."""

    interactions: int
    duration_seconds: float
    interaction_latencies: List[float] = field(default_factory=list)
    query_latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: ``(interactions, simulated seconds)`` per emulated thread.
    thread_runs: List[tuple] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Web interactions per (simulated) second across all clients.

        Every thread is an independent closed loop running back-to-back
        interactions, so the fleet's steady-state rate is the *sum of the
        per-thread rates* — the estimator matching the paper's "WIPS over a
        fixed interval" methodology.  (Dividing the total count by the
        slowest thread's elapsed time instead would charge every thread for
        one straggler's tail and biases the scale-up curve low at large
        thread counts.)
        """
        if self.thread_runs:
            return sum(
                count / duration
                for count, duration in self.thread_runs
                if duration > 0
            )
        if self.duration_seconds <= 0:
            return 0.0
        return self.interactions / self.duration_seconds

    def latency_percentile_ms(self, fraction: float = 0.99) -> float:
        return nearest_rank_percentile(self.interaction_latencies, fraction) * 1000.0

    def mean_latency_ms(self) -> float:
        if not self.interaction_latencies:
            return 0.0
        return (
            sum(self.interaction_latencies) / len(self.interaction_latencies) * 1000.0
        )


def run_workload(
    db: PiqlDatabase,
    workload: Workload,
    config: Optional[ClientSimulationConfig] = None,
) -> RunMeasurement:
    """Simulate the emulated-browser fleet against an already-loaded database.

    ``db`` must have had ``workload.setup`` run against it.  Each thread gets
    its own :class:`PiqlDatabase` view (shared cluster and catalog, private
    clock and statistics); threads run their interactions back to back and
    the run's duration is the slowest thread's simulated elapsed time.
    """
    config = config or ClientSimulationConfig()
    total_capacity = db.cluster.total_capacity_ops_per_second()
    db.cluster.set_offered_load(total_capacity * UTILIZATION)

    interaction_latencies: List[float] = []
    query_latencies: Dict[str, List[float]] = {}
    thread_runs: List[tuple] = []
    interactions = 0

    for client_index in range(config.client_machines):
        for thread_index in range(config.threads_per_client):
            view = db.new_client(strategy=config.strategy)
            rng = random.Random(
                (config.seed, client_index, thread_index).__hash__() & 0x7FFFFFFF
            )
            start = view.client.clock.now
            for _ in range(config.interactions_per_thread):
                result = workload.interaction(view, rng)
                interactions += 1
                interaction_latencies.append(result.latency_seconds)
                for name, latency in result.query_latencies.items():
                    query_latencies.setdefault(name, []).append(latency)
            thread_runs.append(
                (config.interactions_per_thread, view.client.clock.now - start)
            )

    return RunMeasurement(
        interactions=interactions,
        duration_seconds=(
            max(duration for _, duration in thread_runs) if thread_runs else 0.0
        ),
        interaction_latencies=interaction_latencies,
        query_latencies=query_latencies,
        thread_runs=thread_runs,
    )
