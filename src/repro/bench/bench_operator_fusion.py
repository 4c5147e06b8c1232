"""Operator-fusion benchmark: tuple-at-a-time versus batch-at-a-time rounds.

The executor plans its fetches batch-at-a-time by default: sorted-index-join
dereferences are fused into one deduplicated bulk round across all children,
data stops are applied to the index entries *before* the base records are
fetched, and index-only residual predicates are evaluated server-side.  This
experiment measures exactly what that buys, by running the same work with
fusion disabled (``PiqlDatabase.simulated(..., fused=False)``) and enabled.

Three phases:

* **paired replay** — one application server replays the same TPC-W
  interaction sequence on two identically seeded databases, fused off/on.
  Because fusion only restructures rounds, every interaction must issue
  *identical per-query operation counts* and every prepared query must
  report *identical static bounds* in both arms; the replay verifies both
  and times each arm's wall clock (same logical work, so the wall-clock
  ratio is the Python-time win).
* **query microbench** — the sorted-join-heavy queries (TPC-W
  search-by-author and new-products, SCADr thoughtstream) are executed
  repeatedly with paired parameters, recording dereference RPC rounds,
  total RPCs, and simulated latency per execution.  Multi-child
  sorted-index joins must show a multiplicative (>= 2x) drop in
  dereference rounds.
* **closed loop** — a think-time population drives the serving tier's
  event kernel against each arm; the measured wall-clock throughput
  (interactions completed per wall second) shows the end-to-end effect.
* **tracing overhead** — the fused replay is repeated with the query-trace
  subsystem off and on (chunk-paired arms): recording a full span tree per
  interaction must cost no more than ``TRACING_BUDGET_US_PER_QUERY`` host
  microseconds per query (median per-chunk difference, scaled to the box
  by a pure-Python calibration kernel); the per-chunk ratio is printed too.
* **forensics overhead** — the traced fused replay is repeated with the
  latency-forensics hot path attached (flight recorder + critical-path
  analysis on every finished query): at most
  ``FORENSICS_BUDGET_US_PER_QUERY`` microseconds per query over the
  tracing-only arm, and the recorder's retained-trace memory must stay
  inside its configured budget.

Run with ``PYTHONPATH=src python -m repro.bench.bench_operator_fusion``
(add ``--quick`` for the CI-sized configuration, which also acts as the
wall-clock regression guard).  Results land in
``results/operator_fusion.json``.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..engine.database import PiqlDatabase
from ..kvstore.cluster import ClusterConfig
from ..obs.criticalpath import CriticalPathAggregator
from ..obs.flightrec import FlightRecorder, ForensicsConfig
from ..serving.simulator import ServingConfig, ServingSimulation
from ..storage.rows import clear_row_caches
from ..workloads.base import Workload, WorkloadScale
from ..workloads.scadr.workload import ScadrWorkload
from ..workloads.tpcw.workload import TpcwWorkload
from .reporting import format_table, percentile, save_results

ARMS = ("serial", "fused")

#: What observing may cost, in host microseconds per query on the box the
#: budgets were set on (see :func:`calibration_seconds`); ``check_result``
#: scales them by how much slower or faster this interpreter runs the
#: calibration kernel.  Stated in absolute cost, not as a ratio over the
#: unobserved replay, so that making the replay cheaper cannot fail them.
TRACING_BUDGET_US_PER_QUERY = 30.0
FORENSICS_BUDGET_US_PER_QUERY = 18.0
#: The ``--quick`` chunks last a few milliseconds each; their medians
#: scatter more, so the CI-sized guards are this much looser.
QUICK_BUDGET_FACTOR = 1.5
#: ``calibration_seconds()`` where the budgets above were measured.
CALIBRATION_REFERENCE_SECONDS = 0.0034

#: Queries of the per-query microbench: (workload, query name).  The TPC-W
#: search-by-author query is the multi-child sorted-index-join class this
#: PR is about (one secondary range per matching author, each entry
#: dereferenced); thoughtstream is the primary-index join class whose win
#: is deserialisation work, not rounds.
MICRO_QUERIES = (
    ("tpcw", "search_by_author_wi"),
    ("tpcw", "new_products_wi"),
    ("scadr", "thoughtstream"),
)


@lru_cache(maxsize=None)
def calibration_seconds() -> float:
    """Best-of-seven seconds for a fixed pure-Python kernel, once a process.

    The kernel does what the observers do — calls, dict and list traffic,
    float arithmetic — so its time moves with the interpreter and the
    machine the way theirs does.
    """

    def kernel() -> float:
        table: Dict[int, float] = {}
        trail: List[Tuple[int, float]] = []
        total = 0.0
        for index in range(20_000):
            key = index % 97
            value = table.get(key, 0.0) + index * 0.5
            table[key] = value
            if index % 3 == 0:
                trail.append((key, value))
            total += value
        return total + len(trail)

    best = float("inf")
    for _ in range(7):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


def _median(values: List[float], default: float) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else default


@dataclass(frozen=True)
class OperatorFusionConfig:
    """Cluster, workload, and traffic shape of the comparison."""

    storage_nodes: int = 6
    node_capacity_ops_per_second: float = 4000.0
    users_per_node: int = 30
    #: Authors are ``items // 4`` drawn from a 16-name pool, so 400 items
    #: give ~6 authors per last name — real multi-child sorted joins.
    items_total: int = 400
    scadr_users_per_node: int = 40
    subscriptions_per_user: int = 10
    #: Paired-replay phase: interactions replayed per arm by one server.
    replay_interactions: int = 400
    #: Query microbench: executions per query per arm.
    micro_executions: int = 120
    #: Closed-loop phase: population, think time, and horizon.  The load is
    #: deliberately near saturation (short think time, large population):
    #: that is the regime where round structure matters — every extra
    #: sequential dereference round sits in a storage-node queue — so the
    #: fused arm's lower per-interaction round count turns into both higher
    #: simulated throughput and more completed work per wall second.  The
    #: simulation itself is deterministic; repetitions only average the
    #: wall clock, and arms are interleaved across repetitions so slow
    #: machine-load drift cancels instead of biasing one arm.
    clients: int = 60
    think_time_seconds: float = 0.1
    duration_seconds: float = 15.0
    closed_loop_repetitions: int = 3
    #: Tracing-overhead phase: full chunk-paired replay passes; the median
    #: per-chunk traced/untraced ratio over all passes is the reported
    #: overhead (robust against machine-load drift and spikes).
    tracing_repetitions: int = 4
    seed: int = 13

    def quick(self) -> "OperatorFusionConfig":
        """A CI-smoke-sized variant (seconds of wall-clock time)."""
        return replace(
            self,
            users_per_node=10,
            items_total=320,
            scadr_users_per_node=20,
            replay_interactions=100,
            micro_executions=40,
            clients=20,
            duration_seconds=5.0,
            closed_loop_repetitions=3,
        )


@dataclass(frozen=True)
class ReplayRecord:
    """One interaction of the paired replay, as one arm saw it."""

    name: str
    latency_seconds: float
    rpcs: int
    dereference_rounds: int
    query_operations: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class MicroRecord:
    """Aggregates of one query's paired microbench in one arm."""

    executions: int
    operations: int
    rpcs: int
    dereference_rounds: int
    mean_latency_ms: float


@dataclass
class OperatorFusionResult:
    """All three phases' measurements for both arms."""

    config: OperatorFusionConfig
    replay: Dict[str, List[ReplayRecord]]
    replay_wall_seconds: Dict[str, float]
    replay_bounds: Dict[str, Dict[str, int]]
    micro: Dict[str, Dict[str, MicroRecord]]
    closed_loop: Dict[str, Dict[str, float]]
    tracing_overhead: Dict[str, float] = field(default_factory=dict)
    forensics_overhead: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Replay-phase summaries
    # ------------------------------------------------------------------
    def replay_operations_identical(self) -> bool:
        """Whether every replayed interaction did identical per-query work."""
        serial, fused = self.replay["serial"], self.replay["fused"]
        return len(serial) == len(fused) and all(
            a.name == b.name and a.query_operations == b.query_operations
            for a, b in zip(serial, fused)
        )

    def bounds_identical(self) -> bool:
        """Whether every prepared query reports the same static bound."""
        return self.replay_bounds["serial"] == self.replay_bounds["fused"]

    def replay_percentile_ms(self, arm: str, fraction: float) -> float:
        return percentile(
            [record.latency_seconds for record in self.replay[arm]], fraction
        ) * 1000.0

    def replay_totals(self, arm: str) -> Tuple[int, int]:
        """(total RPCs, total dereference rounds) of one replay arm."""
        records = self.replay[arm]
        return (
            sum(r.rpcs for r in records),
            sum(r.dereference_rounds for r in records),
        )

    def micro_round_reduction(self, query: str) -> float:
        """serial / fused dereference-round ratio for one microbench query."""
        serial = self.micro["serial"][query].dereference_rounds
        fused = self.micro["fused"][query].dereference_rounds
        if fused == 0:
            return 1.0 if serial == 0 else float(serial)
        return serial / fused

    def summary_payload(self) -> Dict:
        serial_rpcs, serial_rounds = self.replay_totals("serial")
        fused_rpcs, fused_rounds = self.replay_totals("fused")
        return {
            "config": {
                "storage_nodes": self.config.storage_nodes,
                "users_per_node": self.config.users_per_node,
                "items_total": self.config.items_total,
                "replay_interactions": self.config.replay_interactions,
                "micro_executions": self.config.micro_executions,
                "clients": self.config.clients,
                "duration_seconds": self.config.duration_seconds,
                "seed": self.config.seed,
            },
            "replay": {
                "operations_identical": self.replay_operations_identical(),
                "bounds_identical": self.bounds_identical(),
                "static_bounds": self.replay_bounds["fused"],
                "rpcs": {"serial": serial_rpcs, "fused": fused_rpcs},
                "dereference_rounds": {
                    "serial": serial_rounds, "fused": fused_rounds,
                },
                "wall_seconds": self.replay_wall_seconds,
                "p50_ms": {
                    arm: self.replay_percentile_ms(arm, 0.50) for arm in ARMS
                },
                "p99_ms": {
                    arm: self.replay_percentile_ms(arm, 0.99) for arm in ARMS
                },
            },
            "micro": {
                arm: {
                    query: {
                        "executions": record.executions,
                        "operations": record.operations,
                        "rpcs": record.rpcs,
                        "dereference_rounds": record.dereference_rounds,
                        "mean_latency_ms": record.mean_latency_ms,
                    }
                    for query, record in per_query.items()
                }
                for arm, per_query in self.micro.items()
            },
            "micro_round_reduction": {
                query: self.micro_round_reduction(query)
                for query in self.micro["serial"]
            },
            "closed_loop": self.closed_loop,
            "tracing_overhead": self.tracing_overhead,
            "forensics_overhead": self.forensics_overhead,
        }


class OperatorFusionExperiment:
    """Run all three phases of the serial-versus-fused comparison."""

    def __init__(self, config: Optional[OperatorFusionConfig] = None):
        self.config = config or OperatorFusionConfig()

    # ------------------------------------------------------------------
    # Shared setup
    # ------------------------------------------------------------------
    def _tpcw_database(self, fused: bool) -> Tuple[PiqlDatabase, TpcwWorkload]:
        config = self.config
        # Both arms decode identical payload bytes, so the process-global
        # row caches warmed by one arm would hand the other a head start;
        # every arm starts cold so the wall-clock comparison is fair.
        clear_row_caches()
        db = PiqlDatabase.simulated(
            ClusterConfig(
                storage_nodes=config.storage_nodes,
                node_capacity_ops_per_second=config.node_capacity_ops_per_second,
                seed=config.seed,
            ),
            fused=fused,
        )
        workload = TpcwWorkload()
        workload.setup(
            db,
            WorkloadScale(
                storage_nodes=max(2, config.storage_nodes // 2),
                users_per_node=config.users_per_node,
                items_total=config.items_total,
                seed=config.seed,
            ),
        )
        # Paired arms replay the same service-time noise so the measured
        # difference is the arms' round structure, not luck.
        db.cluster.reseed_latency_models(config.seed)
        return db, workload

    def _scadr_database(self, fused: bool) -> Tuple[PiqlDatabase, ScadrWorkload]:
        config = self.config
        clear_row_caches()
        db = PiqlDatabase.simulated(
            ClusterConfig(
                storage_nodes=config.storage_nodes,
                node_capacity_ops_per_second=config.node_capacity_ops_per_second,
                seed=config.seed + 1,
            ),
            fused=fused,
        )
        workload = ScadrWorkload(
            max_subscriptions=config.subscriptions_per_user,
            subscriptions_per_user=config.subscriptions_per_user,
        )
        workload.setup(
            db,
            WorkloadScale(
                storage_nodes=max(2, config.storage_nodes // 2),
                users_per_node=config.scadr_users_per_node,
                seed=config.seed + 1,
            ),
        )
        db.cluster.reseed_latency_models(config.seed + 1)
        return db, workload

    # ------------------------------------------------------------------
    # Phase 1: paired replay
    # ------------------------------------------------------------------
    def run_replay(
        self, fused: bool
    ) -> Tuple[List[ReplayRecord], float, Dict[str, int]]:
        config = self.config
        db, workload = self._tpcw_database(fused)
        db.reset_measurements()
        rng = random.Random(config.seed + 2)
        records: List[ReplayRecord] = []
        started = time.perf_counter()
        for _ in range(config.replay_interactions):
            plan = workload.interaction_plan(db, rng)
            result = workload.run_plan(db, plan)
            records.append(
                ReplayRecord(
                    name=result.name,
                    latency_seconds=result.latency_seconds,
                    rpcs=result.rpcs,
                    dereference_rounds=result.dereference_rounds,
                    query_operations=tuple(sorted(result.query_operations.items())),
                )
            )
        wall = time.perf_counter() - started
        bounds = {
            name: db.prepare(workload.query_sql(name)).operation_bound
            for name in workload.query_names()
        }
        return records, wall, bounds

    # ------------------------------------------------------------------
    # Phase 2: query microbench
    # ------------------------------------------------------------------
    def run_micro(self, fused: bool) -> Dict[str, MicroRecord]:
        config = self.config
        databases: Dict[str, Tuple[PiqlDatabase, Workload]] = {
            "tpcw": self._tpcw_database(fused),
            "scadr": self._scadr_database(fused),
        }
        measurements: Dict[str, MicroRecord] = {}
        for workload_key, query in MICRO_QUERIES:
            db, workload = databases[workload_key]
            rng = random.Random(config.seed + 3)
            stats = db.client.stats
            operations = rpcs = rounds = 0
            latency = 0.0
            for _ in range(config.micro_executions):
                before = stats.snapshot()
                result = workload.run_query(db, query, rng)
                delta = stats.snapshot().delta(before)
                operations += delta.operations
                rpcs += delta.rpcs
                rounds += delta.dereference_rounds
                latency += result.latency_seconds
            measurements[query] = MicroRecord(
                executions=config.micro_executions,
                operations=operations,
                rpcs=rpcs,
                dereference_rounds=rounds,
                mean_latency_ms=latency / config.micro_executions * 1000.0,
            )
        return measurements

    # ------------------------------------------------------------------
    # Phase 3: closed loop
    # ------------------------------------------------------------------
    def run_closed_loop(self, fused: bool) -> Dict[str, float]:
        config = self.config
        db, workload = self._tpcw_database(fused)
        simulation = ServingSimulation(
            db,
            workload,
            ServingConfig(
                mode="closed",
                clients=config.clients,
                think_time_seconds=config.think_time_seconds,
                duration_seconds=config.duration_seconds,
                seed=config.seed,
            ),
        )
        started = time.perf_counter()
        report = simulation.run()
        wall = time.perf_counter() - started
        return {
            "completed": float(report.completed),
            "throughput_per_second": report.throughput,
            "p50_ms": report.response_percentile_ms(0.50),
            "p99_ms": report.response_percentile_ms(0.99),
            "wall_seconds": wall,
            "completed_per_wall_second": report.completed / wall if wall > 0 else 0.0,
        }

    def run_closed_loops(self) -> Dict[str, Dict[str, float]]:
        """Interleaved repetitions of the closed loop, wall clock averaged.

        Each repetition replays the identical deterministic simulation; the
        only quantity that varies is the wall clock, so the repetitions
        exist purely to average machine noise, and interleaving the arms
        keeps slow load drift from favouring whichever arm runs last.
        """
        runs: Dict[str, List[Dict[str, float]]] = {arm: [] for arm in ARMS}
        for _ in range(max(1, self.config.closed_loop_repetitions)):
            for arm in ARMS:
                runs[arm].append(self.run_closed_loop(arm == "fused"))
        aggregated: Dict[str, Dict[str, float]] = {}
        for arm, samples in runs.items():
            wall = sum(s["wall_seconds"] for s in samples) / len(samples)
            merged = dict(samples[0])
            merged["wall_seconds"] = wall
            merged["repetitions"] = float(len(samples))
            merged["completed_per_wall_second"] = (
                merged["completed"] / wall if wall > 0 else 0.0
            )
            aggregated[arm] = merged
        return aggregated

    # ------------------------------------------------------------------
    # Phases 4 and 5: what observing costs
    # ------------------------------------------------------------------
    def _paired_overhead(
        self,
        databases: Dict[str, Tuple[PiqlDatabase, TpcwWorkload]],
        seed: int,
    ) -> Dict[str, float]:
        """Chunk-paired replay of two arms; the second arm observes more.

        Both arms replay the identical deterministic interaction sequence
        on identically seeded databases.  The replay is split into small
        chunks whose two arms run back to back (alternating which goes
        first), so machine-load drift hits both equally.  Each chunk yields
        one paired ratio and one paired cost difference per query; the
        medians over all chunks are reported, which a load spike cannot
        move the way it moves a total-wall comparison.
        """
        config = self.config
        base, observed = databases
        rngs = {arm: random.Random(seed) for arm in databases}
        walls: Dict[str, float] = {arm: 0.0 for arm in databases}
        ratios: List[float] = []
        costs_us: List[float] = []
        chunk = 10
        chunks, remainder = divmod(config.replay_interactions, chunk)
        sizes = [chunk] * chunks + ([remainder] if remainder else [])
        auditor = databases[base][0].auditor
        for _ in range(max(1, config.tracing_repetitions)):
            for index, size in enumerate(sizes):
                ordered = (base, observed) if index % 2 == 0 else (observed, base)
                elapsed = {}
                queries_before = auditor.audited
                for arm in ordered:
                    db, workload = databases[arm]
                    rng = rngs[arm]
                    started = time.perf_counter()
                    for _ in range(size):
                        plan = workload.interaction_plan(db, rng)
                        workload.run_plan(db, plan)
                    elapsed[arm] = time.perf_counter() - started
                    walls[arm] += elapsed[arm]
                queries = auditor.audited - queries_before
                if elapsed[base] > 0:
                    ratios.append(elapsed[observed] / elapsed[base])
                if queries:
                    costs_us.append(
                        (elapsed[observed] - elapsed[base]) * 1e6 / queries
                    )
        # Observing must never change the work: both arms end with
        # identical operation counts on their deterministic twins.
        operations = {
            arm: databases[arm][0].client.stats.operations for arm in databases
        }
        calibration = calibration_seconds()
        return {
            "interactions": float(config.replay_interactions),
            "repetitions": float(max(1, config.tracing_repetitions)),
            f"{base}_wall_seconds": walls[base],
            f"{observed}_wall_seconds": walls[observed],
            "overhead_ratio": _median(ratios, default=1.0),
            "total_wall_ratio": (
                walls[observed] / walls[base] if walls[base] > 0 else 1.0
            ),
            "overhead_us_per_query": _median(costs_us, default=0.0),
            "calibration_seconds": calibration,
            "calibration_scale": calibration / CALIBRATION_REFERENCE_SECONDS,
            "operations_identical": float(
                operations[base] == operations[observed]
            ),
        }

    def run_tracing_overhead(self) -> Dict[str, float]:
        """Paired tracing-off/on replay on the fused executor.

        The traced arm additionally records a full span tree per
        interaction (bounded root retention, so memory stays flat).
        """
        databases: Dict[str, Tuple[PiqlDatabase, TpcwWorkload]] = {}
        for arm in ("untraced", "traced"):
            db, workload = self._tpcw_database(fused=True)
            db.reset_measurements()
            if arm == "traced":
                db.enable_tracing()
            databases[arm] = (db, workload)
        return self._paired_overhead(databases, self.config.seed + 4)

    def run_forensics_overhead(self) -> Dict[str, float]:
        """Paired tracing-only versus tracing-plus-forensics fused replay.

        Both arms trace every interaction; the forensics arm additionally
        attaches a :class:`~repro.obs.flightrec.FlightRecorder` (with its
        critical-path aggregator) as the bound auditor's recorder hook, so
        every finished query is critical-path-analysed and considered for
        retention — the full latency-forensics hot path.
        """
        databases: Dict[str, Tuple[PiqlDatabase, TpcwWorkload]] = {}
        recorder = FlightRecorder(
            ForensicsConfig(), aggregator=CriticalPathAggregator()
        )
        for arm in ("traced", "forensics"):
            db, workload = self._tpcw_database(fused=True)
            db.reset_measurements()
            db.enable_tracing()
            if arm == "forensics":
                db.auditor.recorder = recorder
            databases[arm] = (db, workload)
        overhead = self._paired_overhead(databases, self.config.seed + 5)
        overhead.update(
            traces_seen=float(recorder.seen),
            retained_traces=float(len(recorder.traces)),
            memory_bytes=float(recorder.memory_bytes),
            memory_budget_bytes=float(recorder.config.memory_budget_bytes),
        )
        return overhead

    # ------------------------------------------------------------------
    # Whole experiment
    # ------------------------------------------------------------------
    def run(self) -> OperatorFusionResult:
        replay: Dict[str, List[ReplayRecord]] = {}
        replay_wall: Dict[str, float] = {}
        replay_bounds: Dict[str, Dict[str, int]] = {}
        for arm in ARMS:
            records, wall, bounds = self.run_replay(arm == "fused")
            replay[arm] = records
            replay_wall[arm] = wall
            replay_bounds[arm] = bounds
        micro = {arm: self.run_micro(arm == "fused") for arm in ARMS}
        closed_loop = self.run_closed_loops()
        tracing_overhead = self.run_tracing_overhead()
        forensics_overhead = self.run_forensics_overhead()
        return OperatorFusionResult(
            config=self.config,
            replay=replay,
            replay_wall_seconds=replay_wall,
            replay_bounds=replay_bounds,
            micro=micro,
            closed_loop=closed_loop,
            tracing_overhead=tracing_overhead,
            forensics_overhead=forensics_overhead,
        )


def check_result(result: OperatorFusionResult, quick: bool = False) -> None:
    """Regression guard shared by the CLI run and the benchmark suite.

    Raises ``AssertionError`` when fusion changes the logical work (it never
    may), fails to collapse multi-child dereference rounds, or regresses
    the wall clock of the paired replay beyond a generous tolerance.
    """
    assert result.replay_operations_identical(), (
        "fused arm issued different per-query operation counts"
    )
    assert result.bounds_identical(), (
        "fused arm compiled different static bounds"
    )
    # Multiplicative drop in dereference rounds on the multi-child
    # sorted-index-join class.
    reduction = result.micro_round_reduction("search_by_author_wi")
    assert reduction >= 2.0, (
        f"dereference-round reduction on search_by_author_wi was "
        f"{reduction:.2f}x, expected >= 2x"
    )
    # Identical logical work per execution, arm to arm, in the microbench.
    for query in result.micro["serial"]:
        assert (
            result.micro["serial"][query].operations
            == result.micro["fused"][query].operations
        ), query
    # Coarse wall-clock guard: both replay arms do identical logical work
    # from cold caches, so the fused arm must not be meaningfully slower.
    # The tolerance is deliberately generous — the quick replay lasts well
    # under a second on a shared CI runner, so this only catches
    # pathological regressions (an accidental quadratic path), not noise.
    serial_wall = result.replay_wall_seconds["serial"]
    fused_wall = result.replay_wall_seconds["fused"]
    tolerance = 1.60 if quick else 1.25
    assert fused_wall <= serial_wall * tolerance, (
        f"fused replay took {fused_wall:.2f}s versus serial {serial_wall:.2f}s "
        f"(tolerance {tolerance}x)"
    )
    # Observing must not change the work, and must cost no more host time
    # per query than its budget (scaled to this box by the calibration
    # kernel).  The chunk-paired ratios are printed beside the costs; they
    # are not guarded, because every PR that makes the unobserved replay
    # cheaper raises them without the observers having changed.
    budget_factor = QUICK_BUDGET_FACTOR if quick else 1.0
    for label, overhead, budget_us in (
        ("tracing", result.tracing_overhead, TRACING_BUDGET_US_PER_QUERY),
        ("forensics", result.forensics_overhead, FORENSICS_BUDGET_US_PER_QUERY),
    ):
        if not overhead:
            continue
        assert overhead["operations_identical"] == 1.0, (
            f"{label} changed the operation count of the replay"
        )
        cost = overhead["overhead_us_per_query"]
        budget = budget_us * budget_factor * overhead["calibration_scale"]
        assert cost <= budget, (
            f"{label} cost {cost:.2f} us per query (budget {budget:.2f} us = "
            f"{budget_us} x {budget_factor} x calibration scale "
            f"{overhead['calibration_scale']:.2f}; chunk-median ratio "
            f"{overhead['overhead_ratio']:.3f}x)"
        )
    # The recorder's retained memory must stay inside its budget.
    if result.forensics_overhead:
        overhead = result.forensics_overhead
        assert overhead["memory_bytes"] <= overhead["memory_budget_bytes"], (
            f"flight recorder held {overhead['memory_bytes']:.0f} bytes, "
            f"budget {overhead['memory_budget_bytes']:.0f}"
        )


def print_result(result: OperatorFusionResult) -> None:
    serial_rpcs, serial_rounds = result.replay_totals("serial")
    fused_rpcs, fused_rounds = result.replay_totals("fused")
    print("== paired replay (one application server, identical seeds) ==")
    print(
        f"per-query operation counts identical: "
        f"{result.replay_operations_identical()}; "
        f"static bounds identical: {result.bounds_identical()}"
    )
    print(
        format_table(
            ["arm", "RPCs", "deref rounds", "p50 ms", "p99 ms", "wall s"],
            [
                (
                    arm,
                    result.replay_totals(arm)[0],
                    result.replay_totals(arm)[1],
                    f"{result.replay_percentile_ms(arm, 0.5):.2f}",
                    f"{result.replay_percentile_ms(arm, 0.99):.2f}",
                    f"{result.replay_wall_seconds[arm]:.2f}",
                )
                for arm in ARMS
            ],
        )
    )
    print(
        f"replay totals: RPCs {serial_rpcs} -> {fused_rpcs}, dereference "
        f"rounds {serial_rounds} -> {fused_rounds}\n"
    )
    print("== query microbench (paired parameters) ==")
    rows = []
    for _, query in MICRO_QUERIES:
        serial = result.micro["serial"][query]
        fused = result.micro["fused"][query]
        rows.append(
            (
                query,
                serial.operations,
                fused.operations,
                serial.dereference_rounds,
                fused.dereference_rounds,
                f"{result.micro_round_reduction(query):.2f}x",
                f"{serial.mean_latency_ms:.2f}",
                f"{fused.mean_latency_ms:.2f}",
            )
        )
    print(
        format_table(
            ["query", "serial ops", "fused ops", "serial rounds",
             "fused rounds", "round cut", "serial ms", "fused ms"],
            rows,
        )
    )
    print()
    print("== closed loop (think-time population, event kernel) ==")
    print(
        format_table(
            ["arm", "completed", "sim throughput/s", "p50 ms", "p99 ms",
             "wall s", "completed/wall s"],
            [
                (
                    arm,
                    result.closed_loop[arm]["completed"],
                    f"{result.closed_loop[arm]['throughput_per_second']:.1f}",
                    f"{result.closed_loop[arm]['p50_ms']:.2f}",
                    f"{result.closed_loop[arm]['p99_ms']:.2f}",
                    f"{result.closed_loop[arm]['wall_seconds']:.2f}",
                    f"{result.closed_loop[arm]['completed_per_wall_second']:.1f}",
                )
                for arm in ARMS
            ],
        )
    )
    serial_rate = result.closed_loop["serial"]["completed_per_wall_second"]
    fused_rate = result.closed_loop["fused"]["completed_per_wall_second"]
    if serial_rate > 0:
        print(
            f"wall-clock throughput gain: {fused_rate / serial_rate:.2f}x"
        )
    if result.tracing_overhead:
        overhead = result.tracing_overhead
        print()
        print("== tracing overhead (paired tracing-off/on fused replay) ==")
        print(
            f"untraced {overhead['untraced_wall_seconds']:.3f}s, traced "
            f"{overhead['traced_wall_seconds']:.3f}s over "
            f"{overhead['interactions']:.0f} interactions x "
            f"{overhead['repetitions']:.0f} chunk-paired passes: "
            f"{overhead['overhead_us_per_query']:.2f} us per query "
            f"(full-size budget {TRACING_BUDGET_US_PER_QUERY} us x calibration scale "
            f"{overhead['calibration_scale']:.2f}), "
            f"{(overhead['overhead_ratio'] - 1.0) * 100.0:+.1f}% wall clock "
            f"(chunk-median; total-wall ratio "
            f"{overhead['total_wall_ratio']:.3f}x)"
        )
    if result.forensics_overhead:
        overhead = result.forensics_overhead
        print()
        print("== forensics overhead (traced versus traced+flight-recorder) ==")
        print(
            f"traced {overhead['traced_wall_seconds']:.3f}s, forensics "
            f"{overhead['forensics_wall_seconds']:.3f}s: "
            f"{overhead['overhead_us_per_query']:.2f} us per query "
            f"(full-size budget {FORENSICS_BUDGET_US_PER_QUERY} us x calibration scale "
            f"{overhead['calibration_scale']:.2f}), "
            f"{(overhead['overhead_ratio'] - 1.0) * 100.0:+.1f}% wall clock "
            f"(chunk-median; total-wall ratio "
            f"{overhead['total_wall_ratio']:.3f}x); recorder retained "
            f"{overhead['retained_traces']:.0f}/{overhead['traces_seen']:.0f} "
            f"traces in {overhead['memory_bytes']:.0f}B "
            f"(budget {overhead['memory_budget_bytes']:.0f}B)"
        )


def main(argv: Optional[List[str]] = None) -> None:
    args = list(sys.argv[1:] if argv is None else argv)
    quick = "--quick" in args
    config = OperatorFusionConfig()
    if quick:
        config = config.quick()
    result = OperatorFusionExperiment(config).run()
    print_result(result)
    save_results("operator_fusion", result.summary_payload())
    check_result(result, quick=quick)


if __name__ == "__main__":
    main()
