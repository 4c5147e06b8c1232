"""Deterministic chaos soak: a seeded fault schedule under live traffic.

The failover benchmark measures one crash; this harness soaks the whole
fault plane.  A fixed-shape, seed-parameterised schedule walks the cluster
through four segments — crash/recover, an asymmetric minority partition,
a flaky + slow + delayed stretch, and a second partition — under
closed-loop TPC-W traffic, then heals everything and lets the system
settle.  The same schedule runs twice with identical seeds: once with the
**naive** immediate-retry client (the legacy loop) and once with the full
resilience policy (derived timeouts, jittered backoff under a retry
budget, circuit breakers).

Five invariants must hold on every run, whatever the seed:

1. **No acknowledged write is ever lost** — a metronome of audited quorum
   writes is read back after the run (the R+W>N guarantee, measured).
2. **No static-bound violation** — scale-independence does not bend under
   faults.
3. **Read-your-writes** — an acknowledged probe write is immediately read
   back through the read quorum; a successful read must see it.
4. **Post-heal convergence** — after healing, recovery, and one
   anti-entropy pass, no replica of any key disagrees: the divergence
   scan returns zero.
5. **Availability floor** — the resilient arm completes at least the
   configured fraction of attempted interactions despite the schedule.

The paired arms add the headline comparison: during the partition
windows the resilient client must fail **strictly fewer** interactions
than the naive client, while both arms complete identical work on the
fault-free warmup prefix (the pairing is honest).

Everything is deterministic: the schedule shape is fixed, and the seed
drives traffic, latency draws, backoff jitter, and per-link drop draws.

The ``chaos_soak`` experiment runs the paired soak across several seeds
(``--seeds 11,23,47``) and fails unless every invariant holds on every
seed; the first seed's resilient-arm ``incident-report/v1`` is saved beside
the summary as the run's forensic artifact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..engine.database import PiqlDatabase
from ..errors import UnavailableError
from ..kvstore.cluster import KeyValueCluster
from ..obs.flightrec import ForensicsConfig
from ..obs.incident import IncidentReport
from ..prediction.slo import ServiceLevelObjective
from ..replication.faults import FaultSpec
from ..replication.store import record_seq
from ..resilience.policy import ResilienceConfig
from ..serving.simulator import ServingReport, ServingSimulation
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import WriteAudit, loaded_database, serve
from .reporting import render_with_incident


#: Minimum fraction of attempted interactions the resilient arm must
#: complete across the whole run, faults included.
AVAILABILITY_FLOOR = 0.5

#: The soak's cluster at either size: five nodes, N=3 with R=W=2, so a
#: two-node minority partition costs some keys their quorums.
STORAGE_NODES = 5
REPLICATION = 3
READ_QUORUM = 2
WRITE_QUORUM = 2
NODE_CAPACITY_OPS_PER_SECOND = 400.0
THINK_TIME_SECONDS = 0.3
SLO = ServiceLevelObjective(
    quantile=0.99, latency_seconds=0.5, interval_seconds=5.0
)


@dataclass(frozen=True)
class ChaosSoakConfig:
    """Data size, traffic, schedule shape, and the seed; the cluster shape
    is the module's constants."""

    users_per_node: int = 20
    items_total: int = 80
    clients: int = 16
    #: Fault-free prefix used for the paired-arm identity check.
    warmup_seconds: float = 6.0
    #: Length of the fault window; every fault heals before it ends.
    fault_seconds: float = 18.0
    #: Quiet tail after the last heal (drain + convergence headroom).
    settle_seconds: float = 6.0
    audit_interval_seconds: float = 0.25
    probe_interval_seconds: float = 0.5
    seed: int = 11

    @property
    def duration_seconds(self) -> float:
        return self.warmup_seconds + self.fault_seconds + self.settle_seconds

    def faults(self) -> List[FaultSpec]:
        """The four-segment schedule, scaled into the fault window.

        Offsets are expressed against the canonical 18-second window and
        scaled by ``fault_seconds / 18`` so ``--quick`` compresses the
        same shape instead of dropping segments.  The final heal lands at
        15.8 units — strictly inside the window — so the settle tail
        always starts healthy.
        """
        w = self.warmup_seconds
        unit = self.fault_seconds / 18.0

        def at(offset: float) -> float:
            return w + offset * unit

        return [
            # Segment A: the classic crash/recover pair.
            FaultSpec(time=at(0.5), kind="crash", node_id=1),
            FaultSpec(time=at(3.5), kind="recover", node_id=1),
            # Segment B: minority partition — nodes 2,3 cut off from the
            # client and the rest of the cluster (~30% of keys lose their
            # read/write quorum at N=3, R=W=2 over 5 nodes).
            FaultSpec(time=at(5.0), kind="partition", groups=((2, 3),)),
            FaultSpec(time=at(6.8), kind="heal"),
            # Segment C: cloud weather — a flaky link, a straggler, and a
            # delay that exceeds the client's static RPC deadline.
            FaultSpec(time=at(8.0), kind="flaky", node_id=4, probability=0.12),
            FaultSpec(time=at(8.5), kind="slow", node_id=0, factor=4.0),
            FaultSpec(time=at(9.0), kind="delay", node_id=2, delay_seconds=0.6),
            FaultSpec(time=at(12.0), kind="flaky", node_id=4, probability=0.0),
            FaultSpec(time=at(12.5), kind="restore", node_id=0),
            FaultSpec(time=at(13.0), kind="delay", node_id=2, delay_seconds=0.0),
            # Segment D: a second partition, different minority.
            FaultSpec(time=at(14.0), kind="partition", groups=((0, 1),)),
            FaultSpec(time=at(15.8), kind="heal"),
        ]

    def partition_windows(self) -> List[Tuple[float, float]]:
        """(start, end) of the quorum-loss windows the dominance check uses."""
        w = self.warmup_seconds
        unit = self.fault_seconds / 18.0
        return [
            (w + 5.0 * unit, w + 6.8 * unit),
            (w + 14.0 * unit, w + 15.8 * unit),
        ]

    def resilient_policy(self) -> ResilienceConfig:
        """The full-featured client the soak is meant to vindicate."""
        return ResilienceConfig(
            max_attempts=10,
            backoff_base_seconds=0.08,
            backoff_max_seconds=2.0,
            budget_capacity=40.0,
            budget_refill_per_second=8.0,
            derive_timeouts=True,
            breakers_enabled=True,
            seed=self.seed,
        )

    def naive_policy(self) -> ResilienceConfig:
        """The legacy immediate-retry loop, attempt-count matched."""
        return ResilienceConfig(max_attempts=10, naive=True, seed=self.seed)

    def quick(self) -> "ChaosSoakConfig":
        """CI-smoke sizing: same schedule shape, compressed."""
        return replace(
            self,
            users_per_node=10,
            items_total=50,
            clients=8,
            warmup_seconds=3.0,
            fault_seconds=9.0,
            settle_seconds=4.0,
            audit_interval_seconds=0.4,
            probe_interval_seconds=0.8,
        )


class ReadYourWritesProbe(WriteAudit):
    """Put-then-get probes asserting session monotonicity through faults.

    Each tick writes a fresh key through the write quorum and — when the
    write was acknowledged — immediately reads it back through the read
    quorum.  With R+W>N the quorums intersect, so a successful read MUST
    return the just-written value; returning anything else is a
    consistency violation, not a latency problem.  Reads the network
    refuses (quorum loss, dropped messages) are skipped, not counted:
    unavailability is the availability invariant's business.
    """

    name = "ryw-probe"
    key_format = "probe{:08d}"
    value_format = "probe-at-{:.3f}"

    def __init__(self, cluster: KeyValueCluster):
        super().__init__(cluster, "chaos_ryw")
        self.skipped_reads = 0
        self.violations = 0

    def tick(self, now: float) -> None:
        written = super().tick(now)
        if written is None:
            return
        key, value = written
        try:
            result = self.cluster.get(self.namespace, key, sim_time=now)
        except UnavailableError:
            self.skipped_reads += 1
            return
        if result.value != value:
            self.violations += 1

    def final_verify(self) -> int:
        """Re-read every acknowledged probe after the run has healed."""
        self.violations += self.verify()["lost"]
        return self.violations


def replica_divergence(cluster: KeyValueCluster) -> int:
    """Count keys whose preference-list replicas disagree.

    For every key in every namespace, every node on the key's current
    preference list must hold a record with the newest sequence number
    any replica holds.  After heal + recovery + one anti-entropy pass
    this must be zero — anything else means convergence silently failed.
    """
    replication = cluster.replication
    divergent = 0
    namespaces: set = set()
    for store in replication.stores.values():
        namespaces.update(store.namespaces())
    node_ids = sorted(replication.stores)
    for namespace in sorted(namespaces):
        for key, held in replication.copies(namespace, node_ids, None):
            seqs = {node_id: record_seq(record) for node_id, record in held}
            newest = max(seqs.values())
            owners = replication.preference_list(namespace, key)
            divergent += any(seqs.get(owner) != newest for owner in owners)
    return divergent


@dataclass
class ChaosArmResult:
    """One arm's run plus its post-run verification evidence."""

    name: str
    report: ServingReport
    audit: Dict[str, int]
    ryw_violations: int
    ryw_acknowledged: int
    ryw_skipped_reads: int
    post_heal_divergence: int
    #: Interactions completed with arrival inside the fault-free warmup.
    prefix_completed: int
    #: Failed interactions whose arrival fell inside a partition window.
    window_failures: int
    #: Fleet totals of the client-side resilience counters.
    resilience_counters: Dict[str, float]
    #: Incident report (forensics-enabled arms only).
    incident: Optional[IncidentReport] = None


@dataclass
class ChaosSoakResult:
    """Both arms of one seed plus the judged invariants."""

    config: ChaosSoakConfig
    arms: Dict[str, ChaosArmResult]

    def invariants(self) -> Dict[str, bool]:
        resilient = self.arms["resilient"]
        naive = self.arms["naive"]
        checks = {
            "no_lost_writes": all(
                arm.audit["lost"] == 0 for arm in self.arms.values()
            ),
            "no_bound_violations": all(
                arm.report.bound_violations == 0 for arm in self.arms.values()
            ),
            "read_your_writes": all(
                arm.ryw_violations == 0 for arm in self.arms.values()
            ),
            "post_heal_convergence": all(
                arm.post_heal_divergence == 0 for arm in self.arms.values()
            ),
            "availability_floor": (
                resilient.report.availability >= AVAILABILITY_FLOOR
            ),
        }
        checks["paired_prefix_identical"] = (
            resilient.prefix_completed == naive.prefix_completed
            and resilient.prefix_completed > 0
        )
        checks["resilient_dominates"] = (
            resilient.window_failures < naive.window_failures
        )
        # Forensics invariants: the incident report must reconstruct the
        # injected schedule (every crash/partition window carries ≥1
        # retained trace and ≥1 correlated breaker transition or SLO
        # alert), and every retained trace's critical-path shares must
        # partition its latency exactly.
        checks["incident_reconstructs_schedule"] = (
            resilient.incident.reconstructs_schedule()
        )
        checks["segment_shares_sum_to_one"] = all(
            abs(sum(trace.breakdown.shares.values()) - 1.0) <= 1e-6
            for trace in resilient.report.forensics.recorder.traces
            if trace.breakdown is not None
        )
        return checks

    @property
    def holds(self) -> bool:
        return all(self.invariants().values())

    def payload(self) -> Dict[str, object]:
        return {
            # The record keeps the cluster shape, the floor and the
            # always-on forensics it was judged with.
            "config": {
                **asdict(self.config),
                "storage_nodes": STORAGE_NODES,
                "replication": REPLICATION,
                "read_quorum": READ_QUORUM,
                "write_quorum": WRITE_QUORUM,
                "node_capacity_ops_per_second": NODE_CAPACITY_OPS_PER_SECOND,
                "think_time_seconds": THINK_TIME_SECONDS,
                "slo": asdict(SLO),
                "availability_floor": AVAILABILITY_FLOOR,
                "forensics_enabled": True,
            },
            "invariants": self.invariants(),
            "arms": {
                name: {
                    "availability": arm.report.availability,
                    "completed": arm.report.completed,
                    "failed": arm.report.failed,
                    "bound_violations": arm.report.bound_violations,
                    "write_audit": arm.audit,
                    "ryw_violations": arm.ryw_violations,
                    "ryw_acknowledged": arm.ryw_acknowledged,
                    "ryw_skipped_reads": arm.ryw_skipped_reads,
                    "post_heal_divergence": arm.post_heal_divergence,
                    "prefix_completed": arm.prefix_completed,
                    "window_failures": arm.window_failures,
                    "resilience": arm.resilience_counters,
                }
                for name, arm in self.arms.items()
            },
        }


#: Client-side counters totalled per arm for the soak report; the quick
#: suite's ``quick_chaos`` bench reads its retries and timeouts.
_RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.failures",
    "resilience.timeouts",
    "resilience.backoff_seconds",
    "resilience.budget_exhausted",
    "resilience.breaker_fast_fails",
    "client.rpc_timeouts",
)


def fresh_database(
    config: ChaosSoakConfig, policy: ResilienceConfig
) -> Tuple[PiqlDatabase, TpcwWorkload]:
    # Reseeded: both arms must draw identical latency samples on the
    # fault-free prefix.
    return loaded_database(
        TpcwWorkload(),
        storage_nodes=STORAGE_NODES,
        replication=REPLICATION,
        read_quorum=READ_QUORUM,
        write_quorum=WRITE_QUORUM,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=config.users_per_node,
        items_total=config.items_total,
        seed=config.seed,
        data_seed=7,
        reseed=True,
        resilience=policy,
    )


def run_arm(
    config: ChaosSoakConfig,
    name: str,
    policy: ResilienceConfig,
    forensics: bool = False,
) -> ChaosArmResult:
    db, workload = fresh_database(config, policy)
    audit = WriteAudit(db.cluster, namespace="chaos_audit")
    probe = ReadYourWritesProbe(db.cluster)

    def schedule_probes(simulation: ServingSimulation) -> None:
        horizon = config.duration_seconds
        audit.schedule(simulation.sim, config.audit_interval_seconds, horizon)
        probe.schedule(simulation.sim, config.probe_interval_seconds, horizon)

    served = serve(
        db,
        workload,
        before_run=schedule_probes,
        clients=config.clients,
        think_time_seconds=THINK_TIME_SECONDS,
        duration_seconds=config.duration_seconds,
        slo=SLO,
        faults=config.faults(),
        # Forensics needs telemetry for the SLO-alert correlation and
        # the latency-breakdown scrape.
        telemetry_enabled=forensics,
        forensics=ForensicsConfig() if forensics else None,
        seed=config.seed,
    )
    report = served.report

    # Post-run convergence: the schedule healed everything, but make
    # the precondition explicit (idempotent), run one fleet-wide
    # anti-entropy pass, then scan for any disagreeing replica.
    cluster = db.cluster
    cluster.network.heal()
    for node in cluster.nodes:
        if not node.up:
            cluster.recover_node(node.node_id)
    cluster.replication.rebalance(cluster.live_ids())
    divergence = replica_divergence(cluster)

    audit_result = audit.verify()
    ryw_violations = probe.final_verify()
    prefix_completed = sum(
        1
        for record in report.log.records
        if record.arrival_seconds < config.warmup_seconds
    )
    windows = config.partition_windows()
    window_failures = sum(
        1
        for arrival, _ in report.log.failures
        if any(start <= arrival < end for start, end in windows)
    )
    counters: Dict[str, float] = {key: 0.0 for key in _RESILIENCE_COUNTERS}
    for server in served.simulation.driver.servers:
        registry = server.db.client.stats.metrics
        for key in _RESILIENCE_COUNTERS:
            counters[key] += registry.value(key)
    incident: Optional[IncidentReport] = None
    if report.forensics is not None:
        incident = report.incident_report(
            title=f"chaos soak (seed {config.seed}, {name} arm)"
        )
    return ChaosArmResult(
        name=name,
        report=report,
        audit=audit_result,
        ryw_violations=ryw_violations,
        ryw_acknowledged=len(probe.acknowledged),
        ryw_skipped_reads=probe.skipped_reads,
        post_heal_divergence=divergence,
        prefix_completed=prefix_completed,
        window_failures=window_failures,
        resilience_counters=counters,
        incident=incident,
    )


def run_chaos_soak(config: ChaosSoakConfig) -> ChaosSoakResult:
    """One seeded soak: the paired naive and resilient arms."""
    arms = {
        "naive": run_arm(config, "naive", config.naive_policy()),
        # The resilient arm runs with latency forensics (flight recorder +
        # critical-path analysis + breaker watch) and emits an incident
        # report reconstructing the injected schedule.  Pure observation:
        # tracing consumes no RNG, so the paired-prefix identity with the
        # naive arm is unaffected.
        "resilient": run_arm(
            config, "resilient", config.resilient_policy(), forensics=True
        ),
    }
    return ChaosSoakResult(config=config, arms=arms)


# ----------------------------------------------------------------------
# The experiment record: the paired soak across several seeds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSuiteConfig:
    """One soak configuration, run once per seed."""

    base: ChaosSoakConfig = field(default_factory=ChaosSoakConfig)
    seeds: Tuple[int, ...] = (11, 23, 47)


def run_suite(config: ChaosSuiteConfig) -> Dict[int, ChaosSoakResult]:
    return {
        seed: run_chaos_soak(replace(config.base, seed=seed))
        for seed in config.seeds
    }


def check_suite(results: Dict[int, ChaosSoakResult]) -> None:
    for seed, result in results.items():
        for invariant, holds in result.invariants().items():
            claim(f"chaos_soak: {invariant}", holds, f"seed {seed}")


def suite_details(results: Dict[int, ChaosSoakResult]) -> Dict[str, Dict]:
    """Per-seed incident reports, and the first seed's as its own artifact."""
    incidents = {
        str(seed): result.arms["resilient"].incident.payload()
        for seed, result in results.items()
    }
    return {
        "chaos_soak.detail": {"incidents": incidents},
        "incident_report": next(iter(incidents.values())),
    }


def suite_payload(results: Dict[int, ChaosSoakResult]) -> Dict[str, object]:
    return {
        "seeds": {str(seed): r.payload() for seed, r in results.items()},
        "all_invariants_hold": all(r.holds for r in results.values()),
    }


EXPERIMENTS = (
    Experiment(
        name="chaos_soak",
        config=ChaosSuiteConfig(),
        quick=ChaosSuiteConfig(ChaosSoakConfig().quick()),
        run=run_suite,
        payload=suite_payload,
        check=check_suite,
        # The first seed's timeline stands for the run.
        render=lambda results: render_with_incident(
            suite_payload(results),
            next(iter(results.values())).arms["resilient"].incident,
        ),
        details=suite_details,
    ),
)
