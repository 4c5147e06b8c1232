"""Storage-engine benchmark: parity, scale sweep, recovery, budgeted loads.

The storage-engine PR's claim is that durability is *free at the query
layer*: swapping the in-memory dict engine for the LSM engine changes
where bytes live (memtable + WAL + sorted segments instead of a Python
dict) but not a single observable of the simulation.  This experiment
makes that claim measurable along four axes:

``parity``
    The same seeded mixed workload (puts, quorum gets, deletes, range
    scans, a mid-run crash + recover) runs once per engine.  Values,
    charged latencies, serving node ids, keys touched, and every
    non-engine metric must be **bit-identical** arm to arm.

``sweep``
    Point-get and fixed-limit range latency across data cardinalities on
    the LSM engine.  PIQL's scale-independence argument must survive the
    storage engine: per-query simulated latency stays flat as the store
    grows, while resident memtable bytes stay bounded by the configured
    budget no matter how many keys are loaded.

``recovery``
    A write audit through quorum acknowledgements: every acknowledged
    write must read back after a crash + recover cycle (disk recovery
    plus hint replay for the delta), and the repair traffic must match
    the dict arm's hint-replay oracle exactly.

``bulk``
    A memory-budgeted bulk load (spilling external sort, WAL-free segment
    builds) must spill under a tiny budget, stay within it, and land the
    same data as per-record loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..kvstore.cluster import ClusterConfig, KeyValueCluster
from ..stats import nearest_rank_percentile
from .experiment import Experiment, claim


#: Byte budget of the budgeted bulk-load phase.
BULK_BUDGET_BYTES = 8192
#: Engine-level memtable budget — deliberately tiny so the benchmark
#: exercises flushes, segment stacks, and compaction, not just dicts.
MEMTABLE_BUDGET_BYTES = 8192
#: The cluster at either size: five nodes, N=3 with R=W=2.
STORAGE_NODES = 5
REPLICATION = 3
READ_QUORUM = 2
WRITE_QUORUM = 2
SEED = 17


@dataclass(frozen=True)
class StorageEngineConfig:
    """Workload sizes of the storage-engine experiment; the cluster shape
    is the module's constants."""

    #: Mixed-workload length of the parity phase.
    parity_ops: int = 600
    #: Data cardinalities of the latency sweep.
    sweep_sizes: Tuple[int, ...] = (1_000, 4_000, 16_000)
    #: Point / range probes measured per sweep size.
    sweep_probes: int = 300
    #: Acknowledged writes before / during the recovery phase's outage.
    recovery_writes: int = 300
    recovery_writes_during_outage: int = 150
    #: Rows of the budgeted bulk-load phase.
    bulk_rows: int = 6_000

    @classmethod
    def quick(cls) -> "StorageEngineConfig":
        """The CI-sized configuration (same phases, smaller sizes)."""
        return cls(
            parity_ops=300,
            sweep_sizes=(500, 2_000, 8_000),
            sweep_probes=150,
            recovery_writes=150,
            recovery_writes_during_outage=80,
            bulk_rows=3_000,
        )


# ----------------------------------------------------------------------
# Cluster construction
# ----------------------------------------------------------------------
def _cluster(config: StorageEngineConfig, engine: str) -> KeyValueCluster:
    options = None
    if engine == "lsm":
        options = {"memtable_budget_bytes": MEMTABLE_BUDGET_BYTES}
    cluster = KeyValueCluster(
        ClusterConfig(
            storage_nodes=STORAGE_NODES,
            replication=REPLICATION,
            read_quorum=READ_QUORUM,
            write_quorum=WRITE_QUORUM,
            seed=SEED,
            storage_engine=engine,
            engine_options=options,
        )
    )
    cluster.create_namespace("data")
    return cluster


# ----------------------------------------------------------------------
# Phase 1: dict-vs-lsm parity
# ----------------------------------------------------------------------
def _parity_arm(config: StorageEngineConfig, engine: str):
    cluster = _cluster(config, engine)
    try:
        rng = random.Random(SEED)
        observations: List[Tuple] = []
        crash_at = config.parity_ops // 3
        recover_at = 2 * config.parity_ops // 3
        for step in range(config.parity_ops):
            if step == crash_at:
                cluster.crash_node(1)
            if step == recover_at:
                cluster.recover_node(1)
            key = f"k{rng.randrange(200):04d}".encode()
            action = rng.random()
            if action < 0.5:
                result = cluster.put("data", key, f"v{step}".encode())
            elif action < 0.7:
                result = cluster.get("data", key)
            elif action < 0.8:
                result = cluster.delete("data", key)
            else:
                result = cluster.get_range("data", key, key + b"\xff", limit=10)
            observations.append(
                (
                    result.value,
                    result.latency_seconds,
                    result.node_id,
                    result.keys_touched,
                    result.hinted,
                )
            )
        contents = dict(cluster.iter_namespace("data"))
        metrics = {
            name: float(value)
            for name, value in cluster.metrics.counters().items()
            if not name.startswith("engine.")
        }
        return observations, contents, metrics
    finally:
        cluster.close()


def _run_parity(config: StorageEngineConfig) -> Dict[str, Any]:
    dict_arm = _parity_arm(config, "dict")
    lsm_arm = _parity_arm(config, "lsm")
    return {
        "identical": dict_arm == lsm_arm,
        "ops": config.parity_ops,
        "metrics": dict_arm[2],
    }


# ----------------------------------------------------------------------
# Phase 2: latency sweep across cardinalities
# ----------------------------------------------------------------------
def _run_latency_by_size(config: StorageEngineConfig) -> List[Dict[str, Any]]:
    """Latency + engine state at each data cardinality."""
    points = []
    for size in config.sweep_sizes:
        cluster = _cluster(config, "lsm")
        try:
            rows = (
                (f"k{index:08d}".encode(), f"v{index}".encode())
                for index in range(size)
            )
            cluster.bulk_load_namespace(
                "data", rows, memory_budget_bytes=MEMTABLE_BUDGET_BYTES
            )
            rng = random.Random(SEED + size)
            peak_memtable = 0
            get_latencies: List[float] = []
            range_latencies: List[float] = []
            for _ in range(config.sweep_probes):
                index = rng.randrange(size)
                key = f"k{index:08d}".encode()
                get_latencies.append(
                    cluster.get("data", key).latency_seconds * 1000.0
                )
                range_latencies.append(
                    cluster.get_range(
                        "data", key, b"k99999999", limit=10
                    ).latency_seconds
                    * 1000.0
                )
                # A write keeps the memtable/WAL path warm mid-sweep.
                cluster.put("data", key, b"rewrite")
                peak_memtable = max(
                    peak_memtable,
                    max(
                        int(engine.gauges().get("memtable_bytes", 0))
                        for engine in cluster.engines.values()
                    ),
                )
            gauges = [engine.gauges() for engine in cluster.engines.values()]
            points.append(
                dict(
                    keys=size,
                    get_mean_ms=sum(get_latencies) / len(get_latencies),
                    get_p99_ms=nearest_rank_percentile(get_latencies, 0.99),
                    range_mean_ms=sum(range_latencies) / len(range_latencies),
                    segment_count=int(sum(g["segment_count"] for g in gauges)),
                    segment_bytes=int(sum(g["segment_bytes"] for g in gauges)),
                    peak_memtable_bytes=peak_memtable,
                )
            )
        finally:
            cluster.close()
    return points


# ----------------------------------------------------------------------
# Phase 3: acked-write recovery audit
# ----------------------------------------------------------------------
def _recovery_arm(config: StorageEngineConfig, engine: str):
    cluster = _cluster(config, engine)
    try:
        acked: Dict[bytes, bytes] = {}
        for index in range(config.recovery_writes):
            key = f"k{index:05d}".encode()
            value = f"v{index}".encode()
            cluster.put("data", key, value)
            acked[key] = value
        cluster.crash_node(2)
        for index in range(config.recovery_writes_during_outage):
            key = f"x{index:05d}".encode()
            value = f"w{index}".encode()
            cluster.put("data", key, value)
            acked[key] = value
        report = cluster.recover_node(2)
        lost = sum(
            1
            for key, value in acked.items()
            if cluster.get("data", key).value != value
        )
        recovery = cluster.last_engine_recovery
        return {
            "acknowledged": len(acked),
            "lost": lost,
            "hints_replayed": report.hints_replayed,
            "keys_copied": report.keys_copied,
            "segments_loaded": recovery.segments_loaded if recovery else 0,
            "wal_records_replayed": (
                recovery.wal_records_replayed if recovery else 0
            ),
        }
    finally:
        cluster.close()


def _run_recovery(config: StorageEngineConfig) -> Dict[str, Any]:
    dict_arm = _recovery_arm(config, "dict")
    lsm_arm = _recovery_arm(config, "lsm")
    return {
        "acknowledged": lsm_arm["acknowledged"],
        "lost": lsm_arm["lost"] + dict_arm["lost"],
        "hints_replayed": lsm_arm["hints_replayed"],
        # The dict arm's hint replay is the oracle for repair traffic.
        "oracle_match": (
            dict_arm["hints_replayed"] == lsm_arm["hints_replayed"]
            and dict_arm["keys_copied"] == lsm_arm["keys_copied"]
        ),
        "segments_loaded": lsm_arm["segments_loaded"],
        "wal_records_replayed": lsm_arm["wal_records_replayed"],
    }


# ----------------------------------------------------------------------
# Phase 4: budgeted bulk load
# ----------------------------------------------------------------------
def _run_bulk(config: StorageEngineConfig) -> Dict[str, Any]:
    rng = random.Random(SEED + 99)
    rows = [
        (f"k{rng.randrange(config.bulk_rows):06d}".encode(), f"v{i}".encode())
        for i in range(config.bulk_rows)
    ]
    reference = _cluster(config, "dict")
    try:
        for key, value in rows:
            reference.load("data", key, value)
        expected = dict(reference.iter_namespace("data"))
    finally:
        reference.close()
    cluster = _cluster(config, "lsm")
    try:
        cluster.bulk_load_namespace(
            "data", iter(rows), memory_budget_bytes=BULK_BUDGET_BYTES
        )
        return {
            "rows": len(rows),
            "spill_count": sum(
                getattr(engine, "bulk_spill_count", 0)
                for engine in cluster.engines.values()
            ),
            "match": dict(cluster.iter_namespace("data")) == expected,
        }
    finally:
        cluster.close()


def run(config: StorageEngineConfig) -> Dict[str, Any]:
    """The four phases, each on fresh clusters (tmp-dir LSM state).

    Returns the summary that is saved: one section per phase.
    """
    parity = _run_parity(config)
    sweep = _run_latency_by_size(config)
    return {
        "parity": parity,
        "sweep": sweep,
        # Largest-over-smallest mean get latency across the sweep (~1.0).
        "sweep_latency_ratio": (
            sweep[-1]["get_mean_ms"] / max(sweep[0]["get_mean_ms"], 1e-12)
        ),
        "recovery": _run_recovery(config),
        "bulk": _run_bulk(config),
    }


def check(result: Dict[str, Any]) -> None:
    # Values, charged latencies, serving nodes, op counts, and every
    # non-engine metric.
    claim("storage_engine: the LSM arm is observationally identical to the dict arm",
          result["parity"]["identical"])
    claim("storage_engine: per-query latency is flat across the 16x data-size sweep",
          0.8 <= result["sweep_latency_ratio"] <= 1.25, result["sweep_latency_ratio"])
    # Both sizes run under the one default budget.
    budget = MEMTABLE_BUDGET_BYTES
    for point in result["sweep"]:
        claim("storage_engine: the resident memtable stays inside its byte budget",
              point["peak_memtable_bytes"] <= budget + 1024,
              f"{point['peak_memtable_bytes']} > {budget} at {point['keys']} keys")
    recovery, bulk = result["recovery"], result["bulk"]
    # Disk recovery plus hint replay for the outage delta.
    claim("storage_engine: every acknowledged write survives crash + recover",
          recovery["acknowledged"] > 0 and recovery["lost"] == 0, recovery)
    claim("storage_engine: recovery restored state from segments or the WAL",
          recovery["segments_loaded"] + recovery["wal_records_replayed"] > 0)
    claim("storage_engine: repair traffic matches the dict-engine oracle",
          recovery["oracle_match"])
    claim("storage_engine: the budgeted bulk load spilled sorted runs",
          bulk["spill_count"] > 0)
    claim("storage_engine: bulk-loaded contents equal per-record loads",
          bulk["match"])


EXPERIMENTS = (
    Experiment(
        name="storage_engine",
        config=StorageEngineConfig(),
        quick=StorageEngineConfig.quick(),
        run=run,
        payload=dict,
        check=check,
    ),
)
