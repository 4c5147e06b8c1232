"""Scale-up experiments (Figures 8-11).

For each cluster size the experiment loads a dataset whose size grows with
the cluster (constant data per server), runs one client machine per two
storage servers, and records throughput and 99th-percentile web-interaction
response time.  The paper's claims are (a) near-linear throughput scale-up
(R^2 > 0.98) and (b) essentially flat 99th-percentile latency as the system
grows — both of which the simulated reproduction exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Sequence

from ..workloads.base import Workload
from ..workloads.scadr.workload import ScadrWorkload
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import loaded_database
from .harness import ClientSimulationConfig, RunMeasurement, run_workload
from .reporting import format_table, linear_fit_r_squared


@dataclass
class ScalePoint:
    """Measurements for one cluster size."""

    storage_nodes: int
    client_machines: int
    throughput: float
    p99_latency_ms: float
    mean_latency_ms: float
    interactions: int


@dataclass
class ScalingResult:
    """The full scale-up curve plus its linearity statistic."""

    workload_name: str
    points: List[ScalePoint] = field(default_factory=list)

    @property
    def throughput_r_squared(self) -> float:
        xs = [float(p.storage_nodes) for p in self.points]
        ys = [p.throughput for p in self.points]
        return linear_fit_r_squared(xs, ys)

    @property
    def max_p99_ms(self) -> float:
        return max(p.p99_latency_ms for p in self.points)

    @property
    def min_p99_ms(self) -> float:
        return min(p.p99_latency_ms for p in self.points)

    def latency_flatness(self) -> float:
        """Ratio of the largest to the smallest 99th-percentile latency.

        A value close to 1 means response time is independent of scale.
        """
        return self.max_p99_ms / max(self.min_p99_ms, 1e-9)

    def rows(self) -> List[Sequence[object]]:
        return [
            (
                p.storage_nodes,
                p.client_machines,
                round(p.throughput, 1),
                round(p.p99_latency_ms, 1),
                round(p.mean_latency_ms, 1),
            )
            for p in self.points
        ]


#: Items in the TPC-W catalogue at every cluster size.
ITEMS_TOTAL = 600
#: Copies of each key (fewer on a cluster smaller than that).
REPLICATION = 2
SEED = 17


@dataclass
class ScalingExperimentConfig:
    """Knobs of the scale-up experiment.

    The node counts follow the paper (20 to 100 storage nodes); the per-node
    data sizes and per-thread interaction counts are scaled down so the
    simulation completes quickly — the scaling *shape* does not depend on
    them.
    """

    node_counts: Sequence[int] = (20, 40, 60, 80, 100)
    users_per_node: int = 60
    threads_per_client: int = 5
    interactions_per_thread: int = 12


def run_point(
    workload: Workload, config: ScalingExperimentConfig, storage_nodes: int
) -> ScalePoint:
    """Run one cluster size and return its measurements."""
    # Constant data per server: the dataset grows with the cluster.
    db, workload = loaded_database(
        workload,
        storage_nodes=storage_nodes,
        data_nodes=storage_nodes,
        users_per_node=config.users_per_node,
        items_total=ITEMS_TOTAL,
        seed=SEED + storage_nodes,
        data_seed=SEED,
        replication=min(REPLICATION, storage_nodes),
    )
    # One client machine per two storage servers, as in the paper.
    client_machines = max(1, storage_nodes // 2)
    measurement: RunMeasurement = run_workload(
        db,
        workload,
        ClientSimulationConfig(
            client_machines=client_machines,
            threads_per_client=config.threads_per_client,
            interactions_per_thread=config.interactions_per_thread,
            seed=SEED + storage_nodes,
        ),
    )
    return ScalePoint(
        storage_nodes=storage_nodes,
        client_machines=client_machines,
        throughput=measurement.throughput,
        p99_latency_ms=measurement.latency_percentile_ms(0.99),
        mean_latency_ms=measurement.mean_latency_ms(),
        interactions=measurement.interactions,
    )


def run(
    workload_factory: Callable[[], Workload], config: ScalingExperimentConfig
) -> ScalingResult:
    """Run a workload at every cluster size of the sweep (Figures 8-11)."""
    return ScalingResult(
        workload_name=workload_factory().name,
        points=[
            run_point(workload_factory(), config, storage_nodes)
            for storage_nodes in config.node_counts
        ],
    )


# ----------------------------------------------------------------------
# The experiment records: Figures 8 & 9 (TPC-W), 10 & 11 (SCADr)
# ----------------------------------------------------------------------
def _check(result: ScalingResult) -> None:
    figures = f"{result.workload_name} scale-up"
    throughputs = [p.throughput for p in result.points]
    nodes = [p.storage_nodes for p in result.points]
    claim(f"{figures}: throughput grows with every cluster size",
          all(b > a for a, b in zip(throughputs, throughputs[1:])), throughputs)
    claim(f"{figures}: throughput scale-up is near-linear (R^2 > 0.98)",
          result.throughput_r_squared > 0.98, result.throughput_r_squared)
    # k times the nodes should give roughly k times the throughput (within 40%).
    claim(f"{figures}: throughput grows in proportion to the cluster",
          throughputs[-1] / throughputs[0] > nodes[-1] / nodes[0] * 0.6)
    claim(f"{figures}: 99th-percentile latency is independent of scale",
          result.latency_flatness() < 2.0, result.latency_flatness())


def _render(title: str, rate: str, paper_r_squared: float):
    def render(result: ScalingResult) -> str:
        table = format_table(
            ["storage nodes", "clients", rate, "p99 RT (ms)", "mean RT (ms)"],
            result.rows(),
        )
        return (
            f"{title}\n{table}\n"
            f"throughput linearity R^2 = {result.throughput_r_squared:.4f} "
            f"(paper: {paper_r_squared})\n"
            f"p99 latency range: {result.min_p99_ms:.1f}-{result.max_p99_ms:.1f} ms"
        )

    return render


def _payload(result: ScalingResult) -> dict:
    return {"rows": result.rows(), "r_squared": result.throughput_r_squared}


def _scadr_workload() -> ScadrWorkload:
    # Section 8.2: limits of 10 subscriptions and 10 results per page.
    return ScadrWorkload(
        max_subscriptions=10, subscriptions_per_user=10, thoughts_per_user=20
    )


#: CI size for both figures: a smaller sweep over less data per node.
_QUICK = dict(node_counts=(6, 12, 24), users_per_node=20, threads_per_client=4)


EXPERIMENTS = (
    Experiment(
        name="fig8_9_tpcw_scaling",
        config=ScalingExperimentConfig(
            users_per_node=40, threads_per_client=4, interactions_per_thread=12
        ),
        quick=ScalingExperimentConfig(interactions_per_thread=12, **_QUICK),
        run=partial(run, TpcwWorkload),
        payload=_payload,
        check=_check,
        render=_render(
            "Figures 8 & 9 — TPC-W scale-up (ordering mix)", "WIPS", 0.9985
        ),
    ),
    Experiment(
        name="fig10_11_scadr_scaling",
        config=ScalingExperimentConfig(
            users_per_node=50, threads_per_client=4, interactions_per_thread=8
        ),
        quick=ScalingExperimentConfig(interactions_per_thread=8, **_QUICK),
        run=partial(run, _scadr_workload),
        payload=_payload,
        check=_check,
        render=_render(
            "Figures 10 & 11 — SCADr scale-up (home-page rendering)",
            "interactions/s", 0.9868,
        ),
    ),
)
