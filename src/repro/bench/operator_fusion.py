"""Operator-fusion benchmark: what batch-at-a-time rounds cost, and what
observing them costs.

Under SIMPLE and PARALLEL the executor plans its fetches batch-at-a-time:
sorted-index-join dereferences are fused into one deduplicated bulk round
across all children, data stops are applied to the index entries *before*
the base records are fetched, and index-only residual predicates are
evaluated server-side.  The tuple-at-a-time SIMPLE/PARALLEL arm this
experiment used to race against is retired (PR 17; the Lazy executor keeps
that code alive as Figure 12's baseline), so the claims are absolute, and
the simulated numbers are pinned to the committed
``results/operator_fusion.json`` — what the arm comparison used to catch, a
change in round structure, now shows as a diff against those.

Five phases:

* **replay** — one application server replays a seeded TPC-W interaction
  sequence; total RPCs, dereference rounds, and latency percentiles are
  recorded (simulated, pinned) beside the wall clock (host, printed).
* **query microbench** — the sorted-join-heavy queries (TPC-W
  search-by-author and new-products, SCADr thoughtstream) are executed
  repeatedly, recording operations, dereference RPC rounds, total RPCs, and
  simulated latency.  A multi-child sorted-index join must pay exactly two
  dereference rounds per execution — one for the driving scan, one fused
  round for the join — however many children match.
* **closed loop** — a think-time population near saturation drives the
  serving tier's event kernel: the regime where round structure matters,
  because every sequential dereference round sits in a storage-node queue.
* **tracing overhead** — the replay is repeated with the query-trace
  subsystem off and on (chunk-paired arms): recording a full span tree per
  interaction must cost no more than ``TRACING_BUDGET_US_PER_QUERY`` host
  microseconds per query (median per-chunk difference, scaled to this box
  by a pure-Python calibration kernel); the per-chunk ratio is reported too.
* **forensics overhead** — the traced replay is repeated with the
  latency-forensics hot path attached (flight recorder + critical-path
  analysis on every finished query): at most
  ``FORENSICS_BUDGET_US_PER_QUERY`` microseconds per query over the
  tracing-only arm, and the recorder's retained-trace memory must stay
  inside its configured budget.

The two budgets are the only host-clock guards; nothing here compares the
wall clock of two arms.  The host-clock numbers are checked and printed but
never saved: ``results/operator_fusion.json`` holds the configuration and
the simulated numbers only, so a full-size run regenerates it byte for byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from statistics import median_high
from typing import Any, Dict, List, Tuple

from ..engine.database import PiqlDatabase
from ..obs.criticalpath import CriticalPathAggregator
from ..obs.flightrec import MEMORY_BUDGET_BYTES, FlightRecorder, ForensicsConfig
from ..storage.rows import clear_row_caches
from ..workloads.base import Workload
from ..workloads.scadr.workload import ScadrWorkload
from ..workloads.tpcw.workload import TpcwWorkload
from .experiment import Experiment, claim
from .fixtures import loaded_database, replay, replay_percentile_ms, serve
from .reporting import render_payload

#: What observing may cost, in host microseconds per query on the box the
#: budgets were set on (see :func:`calibration_seconds`); ``check`` scales
#: them by how much slower or faster this interpreter runs the calibration
#: kernel.  Stated in absolute cost, not as a ratio over the unobserved
#: replay, so that making the replay cheaper cannot fail them.
TRACING_BUDGET_US_PER_QUERY = 30.0
FORENSICS_BUDGET_US_PER_QUERY = 18.0
#: The quick-size chunks last a few milliseconds each; their medians
#: scatter more, so the CI-sized guards are this much looser.
QUICK_BUDGET_FACTOR = 1.5
#: ``calibration_seconds()`` where the budgets above were measured.
CALIBRATION_REFERENCE_SECONDS = 0.0034
#: Tracing-overhead phase: full chunk-paired replay passes; the median
#: per-chunk traced/untraced difference over all passes is the reported
#: overhead (robust against machine-load drift and spikes).
TRACING_REPETITIONS = 4
#: SCADr subscriptions per user, and the thoughtstream query's declared
#: maximum.
SUBSCRIPTIONS_PER_USER = 10

#: Queries of the per-query microbench: (workload, query name).  The TPC-W
#: search-by-author query is the multi-child sorted-index-join class round
#: fusion is about (one secondary range per matching author, each entry
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


#: The cluster at either size, the closed loop's think time, and the seed
#: every phase derives its own from.  The load is deliberately near
#: saturation (short think time, large population): that is the regime where
#: round structure matters — every extra sequential dereference round sits
#: in a storage-node queue.
STORAGE_NODES = 6
NODE_CAPACITY_OPS_PER_SECOND = 4000.0
THINK_TIME_SECONDS = 0.1
SEED = 13


@dataclass(frozen=True)
class OperatorFusionConfig:
    """Workload size and traffic of the experiment; the cluster shape is
    the module's constants."""

    users_per_node: int = 30
    #: Authors are ``items // 4`` drawn from a 16-name pool, so 400 items
    #: give ~6 authors per last name — real multi-child sorted joins.
    items_total: int = 400
    scadr_users_per_node: int = 40
    #: Replay phase: interactions replayed by one server.
    replay_interactions: int = 400
    #: Query microbench: executions per query.
    micro_executions: int = 120
    #: Closed-loop phase: population and horizon.
    clients: int = 60
    duration_seconds: float = 15.0

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
        )


# ----------------------------------------------------------------------
# Shared setup
# ----------------------------------------------------------------------
def _tpcw_database(config: OperatorFusionConfig) -> Tuple[PiqlDatabase, TpcwWorkload]:
    # The row caches are process-global; every phase starts them cold so
    # its host-clock numbers do not depend on which phases ran before.
    clear_row_caches()
    return loaded_database(
        TpcwWorkload(),
        storage_nodes=STORAGE_NODES,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=config.users_per_node,
        items_total=config.items_total,
        seed=SEED,
        reseed=True,
    )


def _scadr_database(config: OperatorFusionConfig) -> Tuple[PiqlDatabase, ScadrWorkload]:
    clear_row_caches()
    return loaded_database(
        ScadrWorkload(
            max_subscriptions=SUBSCRIPTIONS_PER_USER,
            subscriptions_per_user=SUBSCRIPTIONS_PER_USER,
        ),
        storage_nodes=STORAGE_NODES,
        node_capacity_ops_per_second=NODE_CAPACITY_OPS_PER_SECOND,
        users_per_node=config.scadr_users_per_node,
        seed=SEED + 1,
        reseed=True,
    )


# ----------------------------------------------------------------------
# Phase 1: replay
# ----------------------------------------------------------------------
def run_replay(config: OperatorFusionConfig) -> Tuple[Dict[str, Any], float]:
    """(simulated totals and percentiles, wall seconds)."""
    db, workload = _tpcw_database(config)
    started = time.perf_counter()
    records = replay(db, workload, config.replay_interactions, SEED + 2)
    wall = time.perf_counter() - started
    return {
        "static_bounds": {
            name: db.prepare(workload.query_sql(name)).operation_bound
            for name in workload.query_names()
        },
        "rpcs": sum(r.rpcs for r in records),
        "dereference_rounds": sum(r.dereference_rounds for r in records),
        "p50_ms": replay_percentile_ms(records, 0.50),
        "p99_ms": replay_percentile_ms(records, 0.99),
    }, wall


# ----------------------------------------------------------------------
# Phase 2: query microbench
# ----------------------------------------------------------------------
def run_micro(config: OperatorFusionConfig) -> Dict[str, Dict[str, Any]]:
    """Per query: totals over ``micro_executions`` and the static bound."""
    databases: Dict[str, Tuple[PiqlDatabase, Workload]] = {
        "tpcw": _tpcw_database(config),
        "scadr": _scadr_database(config),
    }
    measurements: Dict[str, Dict[str, Any]] = {}
    for workload_key, query in MICRO_QUERIES:
        db, workload = databases[workload_key]
        rng = random.Random(SEED + 3)
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
        measurements[query] = dict(
            executions=config.micro_executions,
            operations=operations,
            operation_bound=db.prepare(
                workload.query_sql(query)
            ).operation_bound,
            rpcs=rpcs,
            dereference_rounds=rounds,
            mean_latency_ms=latency / config.micro_executions * 1000.0,
        )
    return measurements


# ----------------------------------------------------------------------
# Phase 3: closed loop
# ----------------------------------------------------------------------
def run_closed_loop(config: OperatorFusionConfig) -> Tuple[Dict[str, float], float]:
    """(headline numbers, wall seconds)."""
    db, workload = _tpcw_database(config)
    served = serve(
        db,
        workload,
        clients=config.clients,
        think_time_seconds=THINK_TIME_SECONDS,
        duration_seconds=config.duration_seconds,
        seed=SEED,
    )
    return served.headline(), served.wall_seconds


# ----------------------------------------------------------------------
# Phases 4 and 5: what observing costs
# ----------------------------------------------------------------------
def _paired_overhead(
    config: OperatorFusionConfig,
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
    base, observed = databases
    rngs = {arm: random.Random(seed) for arm in databases}
    walls: Dict[str, float] = {arm: 0.0 for arm in databases}
    ratios: List[float] = []
    costs_us: List[float] = []
    chunk = 10
    chunks, remainder = divmod(config.replay_interactions, chunk)
    sizes = [chunk] * chunks + ([remainder] if remainder else [])
    auditor = databases[base][0].auditor
    for _ in range(TRACING_REPETITIONS):
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
        "repetitions": float(TRACING_REPETITIONS),
        f"{base}_wall_seconds": walls[base],
        f"{observed}_wall_seconds": walls[observed],
        "overhead_ratio": median_high(ratios) if ratios else 1.0,
        "total_wall_ratio": (
            walls[observed] / walls[base] if walls[base] > 0 else 1.0
        ),
        "overhead_us_per_query": median_high(costs_us) if costs_us else 0.0,
        "calibration_seconds": calibration,
        "calibration_scale": calibration / CALIBRATION_REFERENCE_SECONDS,
        "operations_identical": float(
            operations[base] == operations[observed]
        ),
    }


def run_tracing_overhead(config: OperatorFusionConfig) -> Dict[str, float]:
    """Paired tracing-off/on replay.

    The traced arm additionally records a full span tree per
    interaction (bounded root retention, so memory stays flat).
    """
    databases: Dict[str, Tuple[PiqlDatabase, TpcwWorkload]] = {}
    for arm in ("untraced", "traced"):
        db, workload = _tpcw_database(config)
        db.reset_measurements()
        if arm == "traced":
            db.enable_tracing()
        databases[arm] = (db, workload)
    return _paired_overhead(config, databases, SEED + 4)


def run_forensics_overhead(config: OperatorFusionConfig) -> Dict[str, float]:
    """Paired tracing-only versus tracing-plus-forensics replay.

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
        db, workload = _tpcw_database(config)
        db.reset_measurements()
        db.enable_tracing()
        if arm == "forensics":
            db.auditor.recorder = recorder
        databases[arm] = (db, workload)
    overhead = _paired_overhead(config, databases, SEED + 5)
    overhead.update(
        traces_seen=float(recorder.seen),
        retained_traces=float(len(recorder.traces)),
        memory_bytes=float(recorder.memory_bytes),
    )
    return overhead


# ----------------------------------------------------------------------
# Whole experiment
# ----------------------------------------------------------------------
def run(config: OperatorFusionConfig) -> Dict[str, Any]:
    """The five phases: the saved summary (:func:`payload`) and what this
    run cost the host."""
    replayed, replay_wall = run_replay(config)
    micro = run_micro(config)
    closed_loop, loop_wall = run_closed_loop(config)
    return {
        "config": {
            **asdict(config),
            "storage_nodes": STORAGE_NODES,
            "node_capacity_ops_per_second": NODE_CAPACITY_OPS_PER_SECOND,
            "think_time_seconds": THINK_TIME_SECONDS,
            "seed": SEED,
            "subscriptions_per_user": SUBSCRIPTIONS_PER_USER,
            "tracing_repetitions": TRACING_REPETITIONS,
        },
        # Functions of the seeds alone: a full-size run must reproduce
        # the committed file's (the runner checks; see ``pinned``).
        "simulated": {
            "replay": replayed,
            "micro": micro,
            "closed_loop": closed_loop,
        },
        # What this run cost this box: checked and printed, never saved.
        "host_clock": {
            "replay_wall_seconds": replay_wall,
            "closed_loop_wall_seconds": loop_wall,
            "closed_loop_completed_per_wall_second": (
                closed_loop["completed"] / loop_wall if loop_wall > 0 else 0.0
            ),
            "tracing_overhead": run_tracing_overhead(config),
            "forensics_overhead": run_forensics_overhead(config),
        },
    }


def payload(result: Dict[str, Any]) -> Dict[str, Any]:
    """What ``results/operator_fusion.json`` holds: functions of the seeds
    alone."""
    return {key: result[key] for key in ("config", "simulated")}


def render(result: Dict[str, Any]) -> str:
    """The saved summary, then the host-clock numbers it leaves out."""
    return (
        f"{render_payload(payload(result))}\n"
        f"host_clock (this run on this host; not saved):\n"
        f"{render_payload(result['host_clock'], 1)}"
    )


def check(result: Dict[str, Any]) -> None:
    """The absolute claims; the runner adds the pin against committed results."""
    micro = result["simulated"]["micro"]
    for query, record in micro.items():
        claim("operator_fusion: skipped fetches are charged, within the static bound",
              0 < record["operations"]
              <= record["executions"] * record["operation_bound"],
              (query, record))
    # One bulk round for the driving scan's dereference plus one fused round
    # for the join's — where the tuple-at-a-time executor paid one per child
    # (895 rounds against 240 over the same 120 executions, PR 16).
    search = micro["search_by_author_wi"]
    claim("operator_fusion: search_by_author_wi pays 2 dereference rounds per "
          "execution however many children match",
          search["dereference_rounds"] == 2 * search["executions"], search)
    # Observing must not change the work, and must cost no more host time
    # per query than its budget (scaled to this box by the calibration
    # kernel).  The chunk-paired ratios are reported beside the costs; they
    # are not guarded, because every PR that makes the unobserved replay
    # cheaper raises them without the observers having changed.
    # Quick size is the one that replays fewer interactions than the default.
    quick = (
        result["config"]["replay_interactions"]
        < OperatorFusionConfig.replay_interactions
    )
    factor = QUICK_BUDGET_FACTOR if quick else 1.0
    for label, budget_us in (
        ("tracing", TRACING_BUDGET_US_PER_QUERY),
        ("forensics", FORENSICS_BUDGET_US_PER_QUERY),
    ):
        overhead = result["host_clock"][f"{label}_overhead"]
        claim(f"operator_fusion: {label} leaves the replay's operation count unchanged",
              overhead["operations_identical"] == 1.0)
        cost = overhead["overhead_us_per_query"]
        budget = budget_us * factor * overhead["calibration_scale"]
        claim(f"operator_fusion: {label} costs at most its budget per query",
              cost <= budget,
              f"{cost:.2f} us per query (budget {budget:.2f} us = {budget_us} x "
              f"{factor} x calibration scale {overhead['calibration_scale']:.2f}; "
              f"chunk-median ratio {overhead['overhead_ratio']:.3f}x)")
    recorder = result["host_clock"]["forensics_overhead"]
    claim("operator_fusion: the flight recorder stays inside its memory budget",
          recorder["memory_bytes"] <= MEMORY_BUDGET_BYTES,
          f"held {recorder['memory_bytes']:.0f} bytes, "
          f"budget {MEMORY_BUDGET_BYTES}")


EXPERIMENTS = (
    Experiment(
        name="operator_fusion",
        config=OperatorFusionConfig(),
        quick=OperatorFusionConfig().quick(),
        run=run,
        payload=payload,
        check=check,
        render=render,
        pinned="simulated",
    ),
)
