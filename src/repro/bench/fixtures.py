"""What the experiments share: loaded databases, serving runs, paired replays.

Every experiment used to build its own cluster, load its own workload and
wire its own serving simulation; the conventions those copies agreed on
live here once, so two experiments that say "a 6-node TPC-W database" mean
the same thing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..engine.database import PiqlDatabase
from ..engine.session import Session
from ..errors import UnavailableError
from ..kvstore.cluster import ClusterConfig, KeyValueCluster
from ..prediction.slo import ServiceLevelObjective
from ..resilience.policy import ResilienceConfig
from ..serving.simulator import ServingConfig, ServingReport, ServingSimulation
from ..stats import nearest_rank_percentile
from ..workloads.base import Workload, WorkloadScale

W = TypeVar("W", bound=Workload)


# ----------------------------------------------------------------------
# Loaded databases
# ----------------------------------------------------------------------
def loaded_database(
    workload: W,
    *,
    storage_nodes: int,
    users_per_node: int,
    seed: int,
    items_total: int = WorkloadScale.items_total,
    data_nodes: Optional[int] = None,
    data_seed: Optional[int] = None,
    reseed: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    **cluster: Any,
) -> Tuple[PiqlDatabase, W]:
    """A fresh simulated cluster with ``workload``'s schema and data loaded.

    ``data_nodes`` is how many nodes' worth of data is generated (the
    generators multiply per-node quantities by it).  The serving-tier
    experiments load half the cluster's worth, the default; the paper's
    scale-up figures hold data per node constant and pass ``storage_nodes``.
    ``cluster`` takes the remaining :class:`ClusterConfig` fields (capacity,
    replication, quorums).

    ``reseed`` re-anchors the service-time noise streams after the load.
    Loading consumes a workload-dependent number of draws, so paired arms
    only replay the same noise — and differ by what the experiment varies,
    not by luck — when each starts from the re-anchored streams.
    """
    db = PiqlDatabase.simulated(
        ClusterConfig(storage_nodes=storage_nodes, seed=seed, **cluster),
        resilience=resilience,
    )
    workload.setup(
        db,
        WorkloadScale(
            storage_nodes=(
                max(2, storage_nodes // 2) if data_nodes is None else data_nodes
            ),
            users_per_node=users_per_node,
            items_total=items_total,
            seed=seed if data_seed is None else data_seed,
        ),
    )
    if reseed:
        db.cluster.reseed_latency_models(seed)
    return db, workload


# ----------------------------------------------------------------------
# Serving runs
# ----------------------------------------------------------------------
@dataclass
class ServingRun:
    """One finished :class:`ServingSimulation` and what it cost the host."""

    simulation: ServingSimulation
    report: ServingReport
    wall_seconds: float

    def headline(self) -> Dict[str, float]:
        """The four numbers every closed-loop comparison quotes."""
        report = self.report
        return {
            "completed": float(report.completed),
            "throughput_per_second": report.throughput,
            "p50_ms": report.response_percentile_ms(0.50),
            "p99_ms": report.response_percentile_ms(0.99),
        }


def serve(
    db: PiqlDatabase,
    workload: Workload,
    before_run: Optional[Callable[[ServingSimulation], None]] = None,
    **serving: Any,
) -> ServingRun:
    """Drive ``workload`` through the serving tier's event kernel.

    ``serving`` are :class:`ServingConfig` fields (closed loop unless
    ``mode="open"``); ``before_run`` may put its own events on the kernel
    (a surge, a write audit) before the clock starts.
    """
    simulation = ServingSimulation(db, workload, ServingConfig(**serving))
    if before_run is not None:
        before_run(simulation)
    started = time.perf_counter()
    report = simulation.run()
    return ServingRun(simulation, report, time.perf_counter() - started)


@dataclass(frozen=True)
class PhaseSummary:
    """Latency summary of one traffic phase of one run."""

    phase: str
    completed: int
    shed: int
    p50_ms: float
    p99_ms: float
    compliance: float


def summarise_phases(
    report: ServingReport,
    phases: Sequence[Tuple[str, float, float]],
    slo: ServiceLevelObjective,
) -> List[PhaseSummary]:
    """Per ``(name, start, end)`` phase: the requests that arrived inside it."""
    summaries = []
    for name, start, end in phases:
        responses = [
            record.response_seconds
            for record in report.log.records
            if start <= record.arrival_seconds < end
        ]
        compliant = sum(1 for r in responses if r <= slo.latency_seconds)
        p50, p99 = (
            [nearest_rank_percentile(responses, q) * 1000.0 for q in (0.50, 0.99)]
            if responses
            else (0.0, 0.0)
        )
        summaries.append(
            PhaseSummary(
                phase=name,
                completed=len(responses),
                shed=0,  # per-phase shed counts live in the log total
                p50_ms=p50,
                p99_ms=p99,
                compliance=compliant / len(responses) if responses else 1.0,
            )
        )
    return summaries


# ----------------------------------------------------------------------
# Paired replays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayRecord:
    """One replayed interaction, as one arm saw it."""

    name: str
    latency_seconds: float
    rpcs: int
    dereference_rounds: int
    query_operations: Tuple[Tuple[str, int], ...]


def replay(
    db: PiqlDatabase,
    workload: Workload,
    interactions: int,
    seed: int,
    session: Optional[Session] = None,
) -> List[ReplayRecord]:
    """One application server replays ``interactions`` sampled plans.

    The sequence is a function of ``seed`` alone, so two arms on identically
    seeded databases issue the same queries with the same parameters.
    """
    db.reset_measurements()
    rng = random.Random(seed)
    records: List[ReplayRecord] = []
    for _ in range(interactions):
        result = workload.run_plan(
            db, workload.interaction_plan(db, rng), session=session
        )
        records.append(
            ReplayRecord(
                name=result.name,
                latency_seconds=result.latency_seconds,
                rpcs=result.rpcs,
                dereference_rounds=result.dereference_rounds,
                query_operations=tuple(sorted(result.query_operations.items())),
            )
        )
    return records


def same_work(ours: Sequence[ReplayRecord], theirs: Sequence[ReplayRecord]) -> bool:
    """Whether two replays issued identical per-query operations throughout."""
    return len(ours) == len(theirs) and all(
        a.name == b.name and a.query_operations == b.query_operations
        for a, b in zip(ours, theirs)
    )


def replay_percentile_ms(records: Sequence[ReplayRecord], fraction: float) -> float:
    return nearest_rank_percentile(
        [record.latency_seconds for record in records], fraction
    ) * 1000.0


# ----------------------------------------------------------------------
# Probes that ride along on a serving run
# ----------------------------------------------------------------------
class WriteAudit:
    """A metronome of acknowledged writes, verified after the run.

    Every ``interval_seconds`` of simulated time a tick writes one fresh key
    through the normal quorum path.  Writes the cluster *acknowledged* are
    remembered; writes it refused (quorum not met) are counted as rejected —
    refusing is allowed, silently losing an acknowledged value is not.
    :meth:`verify` reads every acknowledged key back through the read quorum
    once the timeline (crash, hints, recovery, anti-entropy) has played out.
    """

    name = "write-audit"
    key_format = "audit{:08d}"
    value_format = "written-at-{:.3f}"

    def __init__(self, cluster: KeyValueCluster, namespace: str = "failover_audit"):
        self.cluster = cluster
        self.namespace = namespace
        cluster.create_namespace(namespace)
        self.acknowledged: List[Tuple[bytes, bytes]] = []
        self.rejected = 0
        self._counter = 0

    def schedule(self, sim, interval_seconds: float, until: float) -> None:
        sim.every(interval_seconds, until, lambda s: self.tick(s.now), self.name)

    def tick(self, now: float) -> Optional[Tuple[bytes, bytes]]:
        """Write one fresh key; the (key, value) if it was acknowledged."""
        self._counter += 1
        key = self.key_format.format(self._counter).encode()
        value = self.value_format.format(now).encode()
        try:
            self.cluster.put(self.namespace, key, value, sim_time=now)
        except UnavailableError:
            self.rejected += 1
            return None
        self.acknowledged.append((key, value))
        return key, value

    def verify(self) -> Dict[str, int]:
        """Read back every acknowledged write; count the ones that are gone."""
        lost = 0
        for key, expected in self.acknowledged:
            result = self.cluster.get(self.namespace, key)
            if result.value != expected:
                lost += 1
        return {
            "acknowledged": len(self.acknowledged),
            "rejected": self.rejected,
            "lost": lost,
        }
