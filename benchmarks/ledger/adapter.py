"""The benchmark's only door into the program under test.

Every other file of ``benchmarks/ledger`` works on plain dicts, lists and
numbers; this is the one file that imports ``repro``.  It is written so
that the refactors the ROADMAP has queued (retiring the parity arms,
splitting ``KeyValueCluster`` behind one RPC seam) cannot break the
benchmark without editing it:

* configuration objects are built by *feature detection* — a keyword is
  passed only if the dataclass or constructor still has it, and every
  dropped knob is counted in :data:`DROPPED_KNOBS`;
* the span wrappers' targets are resolved *by name*; a class or method
  that no longer exists is counted (``ledger.unwrapped_targets``), never an
  error.

The API surface used here is listed in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys
import tempfile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC_ROOT, "repro")

if SRC_ROOT not in sys.path:
    sys.path.insert(0, SRC_ROOT)

import repro  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(PACKAGE_ROOT + os.sep):
    # An installed copy would be measured in place of this checkout's.
    raise ImportError(f"repro resolves to {repro.__file__}, not {PACKAGE_ROOT}")

from repro.engine.database import PiqlDatabase  # noqa: E402
from repro.kvstore.cluster import ClusterConfig, KeyValueCluster  # noqa: E402
from repro.serving.simulator import ServingConfig, ServingSimulation  # noqa: E402
from repro.storage import rows as _rows  # noqa: E402
from repro.workloads.base import WorkloadScale  # noqa: E402
from repro.workloads.scadr.workload import ScadrWorkload  # noqa: E402
from repro.workloads.tpcw.workload import TpcwWorkload  # noqa: E402

#: The modelled cluster — placement salt, service-time noise, weather — is
#: the system under test, not an input, so its seed is fixed.  ``--seed``
#: drives what the benchmark generates: the data and the request stream.
CLUSTER_SEED = 13
STORAGE_NODES = 4

#: Knobs the benchmark asked for that the program no longer has.
DROPPED_KNOBS: List[str] = []


def _accepted(target: Any) -> Optional[set]:
    """Keyword names ``target`` accepts (``None`` = anything via **kwargs)."""
    if dataclasses.is_dataclass(target):
        return {f.name for f in dataclasses.fields(target) if f.init}
    parameters = inspect.signature(target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return None
    return set(parameters)


def build(target: Any, *args: Any, **wanted: Any) -> Any:
    """Call ``target`` with the keywords it still accepts; count the rest."""
    accepted = _accepted(target)
    kwargs = {}
    for name, value in wanted.items():
        if accepted is None or name in accepted:
            kwargs[name] = value
        else:
            label = f"{getattr(target, '__qualname__', target)}.{name}"
            if label not in DROPPED_KNOBS:
                DROPPED_KNOBS.append(label)
    return target(*args, **kwargs)


def use_scratch_dir(path: str) -> None:
    """Send every temporary file of the program under ``path``.

    ``bulk_load_many`` spills through ``tempfile``; the benchmark may only
    write inside its checkout.
    """
    os.makedirs(path, exist_ok=True)
    tempfile.tempdir = path


# ----------------------------------------------------------------------
# SQL workloads: build, serve, read the public statistics
# ----------------------------------------------------------------------
SQL_SCALES = {
    "tpcw": dict(users_per_node=30, items_total=400),
    "scadr": dict(users_per_node=200),
}


def build_sql(kind: str, seed: int) -> Tuple[Any, Any]:
    """Fresh 4-node database + loaded workload (everything ``setup_s`` times)."""
    _rows.clear_row_caches()
    cluster_config = build(
        ClusterConfig, storage_nodes=STORAGE_NODES, seed=CLUSTER_SEED
    )
    db = build(PiqlDatabase.simulated, cluster_config, fused=True)
    workload = TpcwWorkload() if kind == "tpcw" else ScadrWorkload()
    scale = build(
        WorkloadScale, storage_nodes=STORAGE_NODES, seed=seed, **SQL_SCALES[kind]
    )
    workload.setup(db, scale)
    return db, workload


def _forensics_config() -> Any:
    try:
        module = importlib.import_module("repro.obs.flightrec")
        return module.ForensicsConfig()
    except (ImportError, AttributeError):
        DROPPED_KNOBS.append("ForensicsConfig")
        return None


def new_serving(
    db: Any,
    workload: Any,
    *,
    mode: str,
    duration: float,
    seed: int,
    clients: int,
    think: float = 1.0,
    rate: float = 50.0,
    observed: bool = False,
    on_tick: Optional[Callable[[], None]] = None,
    ticks: int = 0,
) -> Tuple[Any, int]:
    """One configured serving run (construction is part of the timed region).

    ``on_tick`` is called at ``ticks - 1`` evenly spaced simulated times
    through the event kernel's public ``schedule_at``; the events touch no
    state of the run.  Returns the simulation and how many were scheduled
    (0 if the kernel no longer offers the call).
    """
    wanted: Dict[str, Any] = dict(
        mode=mode,
        clients=clients,
        think_time_seconds=think,
        arrival_rate_per_second=rate,
        duration_seconds=duration,
        pipelined=True,
        seed=seed,
    )
    if observed:
        wanted["telemetry_enabled"] = True
        forensics = _forensics_config()
        if forensics is not None:
            wanted["forensics"] = forensics
    simulation = ServingSimulation(db, workload, build(ServingConfig, **wanted))
    scheduled = 0
    if on_tick is not None and ticks > 1:
        schedule_at = getattr(getattr(simulation, "sim", None), "schedule_at", None)
        if schedule_at is None:
            if "Simulation.schedule_at" not in DROPPED_KNOBS:
                DROPPED_KNOBS.append("Simulation.schedule_at")
        else:
            for index in range(1, ticks):
                schedule_at(duration * index / ticks, lambda _sim: on_tick(),
                            name="ledger-tick")
            scheduled = ticks - 1
    return simulation, scheduled


def _counter(registry: Any, name: str) -> float:
    try:
        return float(registry.value(name))
    except Exception:  # a registry that lost ``value``: count as absent
        return 0.0


def _cluster_counters(cluster: Any) -> Dict[str, float]:
    """Node counters summed over the cluster, plus the repair/hint counts."""
    snapshot = cluster.metrics_snapshot()
    counters = {
        name: _counter(snapshot, f"node.{name}")
        for name in ("gets", "puts", "range_requests", "keys_read",
                     "keys_written", "keys_filtered", "total_latency_seconds",
                     "queue_wait_seconds")
    }
    counters["read_repairs"] = _counter(snapshot, "replication.read_repairs")
    counters["hints_added"] = _counter(snapshot, "replication.hints_added")
    return counters


def serving_outcome(db: Any, workload: Any, simulation: Any, report: Any,
                    ticks: int = 0) -> Dict[str, Any]:
    """Everything the benchmark reads from a finished run, as plain data.
    ``ticks`` is the number of the benchmark's own events in the kernel.

    Only public statistics are touched: ``report.*``, ``client.stats``,
    ``cluster.metrics_snapshot()``, ``row_cache_stats()``.
    """
    log = report.log
    records = [
        (
            r.name,
            int(r.operations),
            float(r.response_seconds),
            float(r.arrival_seconds),
            tuple(r.query_operations),
        )
        for r in log.records
    ]
    servers = list(getattr(simulation.driver, "servers", ()))
    client = {"operations": 0.0, "rpcs": 0.0, "dereference_rounds": 0.0,
              "saved_reads": 0.0, "keys_touched": 0.0}
    dropped_roots = 0
    for server in servers:
        stats = server.db.client.stats
        for field in client:
            client[field] += float(getattr(stats, field, 0))
        tracer = getattr(server.db, "tracer", None)
        if tracer is not None:
            dropped_roots += int(getattr(tracer, "dropped_roots", 0))
    node = _cluster_counters(db.cluster)
    bounds = {}
    for name in workload.query_names():
        bounds[name] = int(db.prepare(workload.query_sql(name)).operation_bound)
    telemetry = getattr(report, "telemetry", None)
    forensics = getattr(report, "forensics", None)
    retained = 0
    if forensics is not None:
        traces = forensics.recorder.traces
        retained = len(traces() if callable(traces) else traces)
    return {
        "records": records,
        "completed": int(report.completed),
        "failed": int(report.failed),
        "shed": int(getattr(log, "shed", 0)),
        "bound_violations": int(getattr(report, "bound_violations", 0)),
        "audited": int(getattr(report, "audited", 0)),
        "mean_utilization": float(report.mean_utilization),
        "events": int(getattr(simulation.sim, "events_processed", 0)) - ticks,
        "client": client,
        "node": node,
        "read_repairs": node["read_repairs"],
        "hints_added": node["hints_added"],
        "bounds": bounds,
        "scrapes": int(telemetry.collector.scrapes) if telemetry is not None else 0,
        "retained_traces": retained,
        "dropped_roots": dropped_roots,
    }


def row_cache_counts() -> Tuple[int, int]:
    """(hits, misses) of the process-wide row-decode cache."""
    hits, misses = _rows.row_cache_stats()["rows"]
    return int(hits), int(misses)


# ----------------------------------------------------------------------
# Key/value workload: a replicated LSM cluster with no SQL above it
# ----------------------------------------------------------------------
KV_NAMESPACE = "ledger"
KV_REPLICATION = 3


class KvStore:
    """The handful of cluster calls ``kv_lsm_mixed`` makes, in one place."""

    def __init__(self, data_dir: str):
        config = build(
            ClusterConfig,
            storage_nodes=STORAGE_NODES,
            replication=KV_REPLICATION,
            read_quorum=2,
            write_quorum=2,
            seed=CLUSTER_SEED,
            storage_engine="lsm",
            # No fsync: process-crash durability on a sandbox disk.
            engine_options=dict(
                data_dir=data_dir, memtable_budget_bytes=65536, sync_writes=False
            ),
        )
        self.cluster = KeyValueCluster(config)
        self.cluster.create_namespace(KV_NAMESPACE)

    def put(self, key: bytes, value: bytes, sim_time: float) -> Any:
        return self.cluster.put(KV_NAMESPACE, key, value, sim_time=sim_time)

    def get(self, key: bytes, sim_time: float) -> Any:
        return self.cluster.get(KV_NAMESPACE, key, sim_time=sim_time)

    def delete(self, key: bytes, sim_time: float) -> Any:
        return self.cluster.delete(KV_NAMESPACE, key, sim_time=sim_time)

    def bulk_load(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        return self.cluster.bulk_load_namespace(KV_NAMESPACE, iter(items))

    def scan(self, start: bytes, end: bytes, limit: int, sim_time: float) -> Any:
        return self.cluster.get_range(
            KV_NAMESPACE, start, end, limit, sim_time=sim_time
        )

    def maintain(self, max_tasks: int) -> int:
        return self.cluster.run_engine_maintenance(max_tasks=max_tasks)

    def crash_and_recover(self, node_id: int) -> None:
        self.cluster.crash_node(node_id)
        self.cluster.recover_node(node_id)

    def peek(self, key: bytes) -> Optional[bytes]:
        """Latency-free newest-wins read (post-run verification only)."""
        return self.cluster.peek(KV_NAMESPACE, key)

    def drain_maintenance(self) -> None:
        """Flush and compact until the engines report no backlog."""
        self.cluster.flush_storage()
        while self.cluster.run_engine_maintenance() > 0:
            pass

    def gauges(self) -> Dict[str, float]:
        """Engine gauges summed over the nodes (public ``engine(n).gauges()``)."""
        total: Dict[str, float] = {}
        for node in self.cluster.nodes:
            for name, value in self.cluster.engine(node.node_id).gauges().items():
                total[name] = total.get(name, 0.0) + float(value)
        return total

    def node_counters(self) -> Dict[str, float]:
        return _cluster_counters(self.cluster)

    def close(self) -> None:
        self.cluster.close()


# ----------------------------------------------------------------------
# Span-wrapper targets, resolved by name
# ----------------------------------------------------------------------
#: ``(layer, module, "Class.method" or "function")`` — the public entry
#: points of each layer.  Layer names are this repo's modules.
_DATA_PATH = ("get", "put", "delete", "test_and_set", "multi_get",
              "get_range", "multi_get_range", "count_range")
WRAP_TARGETS: List[Tuple[str, str, str]] = [
    ("serving", "repro.serving.simulator", "ServingSimulation.__init__"),
    ("serving", "repro.serving.simulator", "ServingSimulation.run"),
    ("serving", "repro.serving.drivers", "AppServer.run_interaction"),
    ("serving.queueing", "repro.serving.queueing", "NodeRequestQueue.on_request"),
    ("workloads", "repro.workloads.base", "Workload.run_plan"),
    ("workloads", "repro.workloads.base", "Workload.prepare_all"),
    ("workloads", "repro.workloads.tpcw.workload", "TpcwWorkload.interaction_plan"),
    ("workloads", "repro.workloads.scadr.workload", "ScadrWorkload.interaction_plan"),
    ("engine", "repro.engine.database", "PiqlDatabase.execute_ddl"),
    ("engine", "repro.engine.database", "PiqlDatabase.bulk_load"),
    ("engine", "repro.engine.database", "PiqlDatabase.prepare"),
    ("engine", "repro.engine.database", "PiqlDatabase.insert"),
    ("engine", "repro.engine.database", "PiqlDatabase.update"),
    ("engine", "repro.engine.database", "PiqlDatabase.delete"),
    ("engine", "repro.engine.session", "Session.submit"),
    ("engine", "repro.engine.session", "Session.gather"),
    ("engine", "repro.engine.session", "Session.call"),
    ("engine", "repro.engine.query", "PreparedQuery.execute"),
    ("sql", "repro.sql.parser", "parse"),
    ("sql", "repro.sql.parser", "parse_select"),
    ("optimizer", "repro.optimizer.optimizer", "PiqlOptimizer.optimize"),
    ("execution", "repro.execution.executor", "QueryExecutor.execute"),
    ("storage", "repro.storage.record_manager", "RecordManager.insert"),
    ("storage", "repro.storage.record_manager", "RecordManager.update"),
    ("storage", "repro.storage.record_manager", "RecordManager.delete"),
    ("storage", "repro.storage.record_manager", "RecordManager.get"),
    *[("kvstore.client", "repro.kvstore.client", f"StorageClient.{m}")
      for m in _DATA_PATH],
    *[("kvstore.cluster", "repro.kvstore.cluster", f"KeyValueCluster.{m}")
      for m in _DATA_PATH],
    ("kvstore.cluster", "repro.kvstore.cluster",
     "KeyValueCluster.run_engine_maintenance"),
    ("kvstore.cluster", "repro.kvstore.cluster", "KeyValueCluster.crash_node"),
    ("kvstore.cluster", "repro.kvstore.cluster", "KeyValueCluster.recover_node"),
    ("replication", "repro.replication.manager", "ReplicationManager.preference_list"),
    ("replication", "repro.replication.manager", "ReplicationManager.newest_record"),
    ("replication", "repro.replication.manager", "ReplicationManager.merged_range"),
    ("replication", "repro.replication.store", "ReplicaStore.get_record"),
    ("replication", "repro.replication.store", "ReplicaStore.apply_record"),
    ("replication", "repro.replication.store", "ReplicaStore.range_records"),
    ("kvstore.node", "repro.kvstore.node", "StorageNode.charge_read"),
    ("kvstore.node", "repro.kvstore.node", "StorageNode.charge_range"),
    ("kvstore.node", "repro.kvstore.node", "StorageNode.charge_filtered_range"),
    ("kvstore.node", "repro.kvstore.node", "StorageNode.charge_write"),
    ("kvstore.latency", "repro.kvstore.latency", "LatencyModel.sample_seconds"),
    *[("kvstore.engine", "repro.kvstore.memory", f"OrderedKVMap.{m}")
      for m in ("get", "put", "delete", "range")],
    *[("kvstore.engine", "repro.kvstore.engine.lsm", f"LsmTree.{m}")
      for m in ("get", "put", "delete", "range")],
    *[("kvstore.engine", "repro.kvstore.engine.lsm", f"LsmEngine.{m}")
      for m in ("flush", "run_maintenance", "recover", "bulk_load")],
    # Block reads happen inside lazy range iterators, which a call wrapper
    # cannot time; wrapping the leaf charges them to the engine.
    ("kvstore.engine", "repro.kvstore.engine.segment", "Segment.get"),
    ("kvstore.engine", "repro.kvstore.engine.segment", "Segment._read_block"),
    ("resilience", "repro.resilience.policy", "ResiliencePolicy.run"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.add"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.observe"),
    ("obs", "repro.obs.audit", "BoundAuditor.observe_query"),
    ("obs", "repro.obs.trace", "Tracer.start_span"),
    ("obs", "repro.obs.trace", "Tracer.end_span"),
    ("obs", "repro.obs.trace", "Tracer.record"),
    ("obs", "repro.obs.telemetry", "TelemetryCollector.scrape"),
]

LAYERS: Tuple[str, ...] = (
    "serving", "serving.queueing", "workloads", "engine", "sql", "optimizer",
    "execution", "storage", "kvstore.client", "kvstore.cluster", "replication",
    "kvstore.node", "kvstore.latency", "kvstore.engine", "resilience", "obs",
)

#: One unit of work starts where one of these is entered outside a unit.
SQL_UNIT_ROOTS = ("AppServer.run_interaction",)
KV_UNIT_ROOTS = tuple(
    f"KeyValueCluster.{m}" for m in ("get", "put", "delete", "get_range")
)


def resolve_targets() -> Tuple[List[Tuple[str, str, Any, str, Any]], int]:
    """Look every wrap target up by name.

    Returns ``(found, missing)`` where each found entry is ``(layer, name,
    owner, attribute, function)``: ``owner`` is the class (or, for a plain
    function, its defining module) whose ``attribute`` holds ``function``.
    """
    found: List[Tuple[str, str, Any, str, Any]] = []
    missing = 0
    for layer, module_name, path in WRAP_TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            missing += 1
            continue
        *holders, attribute = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder, None)
        function = None if owner is None else vars(owner).get(attribute)
        if not inspect.isfunction(function):
            # Absent, or no longer a plain method (property, generator
            # wrapper, ...): the ledger reports it instead of guessing.
            missing += 1
            continue
        found.append((layer, path, owner, attribute, function))
    return found, missing


def aliases_of(function: Any) -> Iterator[Tuple[Any, str]]:
    """Every ``repro`` module global that is ``function`` (``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                yield module, attribute


def layer_of_source(filename: str) -> Optional[str]:
    """Ledger layer of a source file under ``src/repro`` (for the profile
    cross-check); ``"other"`` for packages the ledger gives no line, and
    ``None`` for files outside the program."""
    try:
        relative = os.path.relpath(filename, PACKAGE_ROOT)
    except ValueError:
        return None
    if relative.startswith(".."):
        return None
    parts = relative.replace(os.sep, "/").split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[0] == "kvstore":
        if len(parts) > 2 and parts[1] == "engine" or stem == "memory":
            return "kvstore.engine"
        return f"kvstore.{stem}" if f"kvstore.{stem}" in LAYERS else "other"
    if parts[0] == "serving":
        return "serving.queueing" if stem == "queueing" else "serving"
    if parts[0] == "plans":
        return "optimizer"
    return parts[0] if parts[0] in LAYERS else "other"
