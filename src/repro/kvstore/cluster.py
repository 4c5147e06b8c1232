"""Simulated distributed key/value store cluster with real replication.

The cluster is the stateful half of PIQL's architecture (Figure 2 in the
paper).  It exposes exactly the operations PIQL requires from a key/value
store (Section 3):

* point ``get`` / ``put`` / ``delete`` with predictable latency,
* ``test_and_set`` (used for uniqueness constraints and conditional updates),
* **range requests** over an order-preserving key encoding (used by index
  scans), and
* ``count_range`` (used by the cardinality-constraint insert protocol).

Since the replication tier landed, data is **physically replicated**: a
consistent-hashing ring (:mod:`repro.replication.ring`) places every key on
``replication`` distinct storage nodes, each node stores its own versioned
copy (:mod:`repro.replication.store`), and the data path is quorum
scatter-gather:

* writes go to every up replica and acknowledge once the ``W`` fastest have
  answered; replicas that are down get **hinted handoff** (the coordinator
  buffers the write and replays it at recovery);
* reads consult ``R`` replicas, resolve conflicts newest-sequence-wins, and
  **read-repair** stale replicas in the background.  A key's read order is
  a pure function of ``(key, seed, topology)`` kept in the
  replication manager's placement cache, so interleaved clients route
  identically; which of those replicas can serve is decided once per
  request — one serving set for a whole ``multi_get`` batch — and each
  observed record is unpacked once;
* range requests merge replica slices newest-wins.  The ring places an
  encoded key by its first value, so a bounded range inside one leading
  value (an index scan's equality prefix) merges only that replica
  group's live replicas and is one range RPC at the first of them in its
  start key's read order.  A range across leading values merges every up
  node and is billed to the last of them; an unbounded scan visits every
  up node in turn.  An empty bounded range, like ``count_range``, is one
  probe RPC at the node :meth:`KeyValueCluster.route` picks for the
  range's start key;
* topology changes (node added / removed / recovered) trigger
  **anti-entropy repair** that re-replicates under-replicated records.

``R + W > N`` is enforced at configuration time, so any read quorum
intersects any write quorum: killing fewer nodes than the replication
factor never loses an acknowledged write.  When too many replicas are down
for an operation's quorum, the cluster raises the typed
:class:`~repro.errors.QuorumNotMetError` /
:class:`~repro.errors.UnavailableError` instead of serving wrong answers.

Every call returns an :class:`OpResult` carrying the charged latency so
callers (the :class:`~repro.kvstore.client.StorageClient`) can advance
their simulated clocks and combine sequential/parallel request latencies
correctly.

Request path
------------
Between a client's call and a node's charge each decision is stated once
(``tests/kvstore/test_request_path_sites.py`` fails on a second site):

* *who is there* — :meth:`KeyValueCluster.live_ids`, the membership view,
  resolved once per request as seen from the client;
* *which replicas a request uses* —
  :func:`repro.replication.manager.choose_replicas`: preference list x
  serving set x the client's suspects x quorum, under reads
  (:meth:`~KeyValueCluster._read_replicas`, which asks it only when a
  node is missing or suspected), writes, ``route`` and ``delete``;
* *what the fault plane does to a message* —
  :meth:`KeyValueCluster._deliver`, the only function that asks
  ``network.delivers`` / ``network.delay_seconds`` or counts
  ``network.dropped``, entered only while the fault plane is active: a read
  or a range is voided by its first lost message, a write hints it;
* *how replica reads in flight together are charged, awaited and
  repaired* — :meth:`KeyValueCluster._await_reads`, under the single-key
  and the batched read alike;
* *what happens to a copy that cannot be delivered* —
  :meth:`KeyValueCluster._hint`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import (
    ExecutionError,
    QuorumNotMetError,
    RpcTimeoutError,
    UnavailableError,
)
from ..obs.metrics import MetricsRegistry
from ..replication.manager import (
    RepairReport,
    ReplicationManager,
    choose_replicas,
)
from ..replication.store import (
    MISSING_SEQ,
    decode_record,
    encode_record,
)
from .engine import create_engine
from .engine.base import EngineRecovery, StorageEngine
from .engine.external import SpillPool
from .network import CLIENT, NetworkModel
from .node import StorageNode

KeyValue = Tuple[bytes, bytes]
#: What :meth:`KeyValueCluster._range_over` answers: ``(pairs, latency,
#: serving node or -1, keys examined, last key examined, payload bytes)``.
_RangeAnswer = Tuple[List[KeyValue], float, int, int, Optional[bytes], int]

#: Server-side range-filter hook: ``filter(key, value) -> keep?``.  Installed
#: per-request by the execution engine's predicate pushdown.
RecordFilter = Callable[[bytes, bytes], bool]


class _Backlogs(dict):
    """One request's snapshot of the nodes' request-queue backlogs,
    ``{node id: seconds booked at or after the request's simulated time}``.

    A node's queue is asked on its first lookup and never again during the
    request, however many keys or ranges the node could serve.  A node
    without a queue has no backlog.
    """

    __slots__ = ("nodes", "sim_time")

    def __init__(self, nodes: List[StorageNode], sim_time: float):
        # Starts empty: ``dict.__new__`` made it so, no call needed.
        self.nodes = nodes
        self.sim_time = sim_time

    def __missing__(self, node_id: int) -> float:
        queue = self.nodes[node_id].request_queue
        backlog = self[node_id] = (
            0.0 if queue is None else queue.backlog_seconds(self.sim_time)
        )
        return backlog

    def least(self, candidates: Sequence[int], needed: int) -> Sequence[int]:
        """The ``needed`` of ``candidates`` (replicas in read order) with
        the least backlog: where a read is served.

        Ties go to read order, so a run without queues is served in read
        order.  When the first ``needed`` replicas in read order have no
        backlog, no other is asked.  The result may be ``candidates``
        itself — do not mutate it.
        """
        if len(candidates) <= needed:
            return candidates
        if needed == 1:
            best = candidates[0]
            least = self[best]
            if least:
                for node_id in candidates:
                    backlog = self[node_id]
                    if backlog < least:  # strictly: ties keep read order
                        best, least = node_id, backlog
            return [best]
        head = candidates[:needed]
        for node_id in head:
            if self[node_id]:
                # ``sorted`` is stable: equal backlogs keep read order.
                return sorted(candidates, key=self.__getitem__)[:needed]
        return head


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of a simulated cluster.

    Parameters mirror the experimental setup in Section 8 of the paper:
    a number of storage nodes, two-fold replication, and a per-node
    capacity that drives queueing under load.

    ``read_quorum`` (R) and ``write_quorum`` (W) control the consistency
    level; they default to ``R=1, W=replication`` (read-one/write-all, the
    closest match to the seed simulator's behaviour) and must satisfy
    ``R + W > replication`` so read and write quorums always intersect.

    ``seed`` also salts each key's read order: the order in which a read
    tries its replicas, a pure function of ``(key, seed, topology)``.  A
    read is served at the replica whose request queue has the least
    backlog, ties going to read order; with no queues installed every
    replica ties, so a read is served in read order, whatever order
    interleaved clients send it in.

    ``storage_engine`` selects each node's physical storage: ``"dict"``
    (in-memory, the seed behaviour — bit-identical results and operation
    counts with every earlier run) or ``"lsm"`` (the persistent LSM-lite
    engine: WAL, segment files, compaction, real crash recovery).
    ``engine_options`` is passed through to the engine factory; the lsm
    engine's ``data_dir`` defaults to a cluster-owned temporary directory
    that is removed on :meth:`KeyValueCluster.close`.  Engine choice never
    changes query results, charged latencies, or per-node operation counts
    — only what happens beneath them.
    """

    storage_nodes: int = 10
    replication: int = 2
    node_capacity_ops_per_second: float = 4000.0
    seed: int = 0
    read_quorum: Optional[int] = None
    write_quorum: Optional[int] = None
    vnodes_per_node: int = 128
    storage_engine: str = "dict"
    engine_options: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        if self.storage_nodes < 1:
            raise ValueError("storage_nodes must be >= 1")
        if self.storage_engine not in ("dict", "lsm"):
            raise ValueError(
                f"unknown storage_engine: {self.storage_engine!r} "
                "(use 'dict' or 'lsm')"
            )
        if not (1 <= self.replication <= self.storage_nodes):
            raise ValueError("replication must be between 1 and storage_nodes")
        if self.vnodes_per_node < 1:
            raise ValueError("vnodes_per_node must be >= 1")
        r = self.effective_read_quorum
        w = self.effective_write_quorum
        if not (1 <= r <= self.replication):
            raise ValueError("read_quorum must be between 1 and replication")
        if not (1 <= w <= self.replication):
            raise ValueError("write_quorum must be between 1 and replication")
        if r + w <= self.replication:
            raise ValueError(
                f"need read_quorum + write_quorum > replication "
                f"({r} + {w} <= {self.replication}); overlapping quorums are "
                "what guarantees reads observe acknowledged writes"
            )

    @property
    def effective_read_quorum(self) -> int:
        return 1 if self.read_quorum is None else self.read_quorum

    @property
    def effective_write_quorum(self) -> int:
        return self.replication if self.write_quorum is None else self.write_quorum


@dataclass
class OpResult:
    """Result of a single cluster operation.

    A value object — nothing mutates one after the cluster returns it.  Not
    declared frozen because a frozen dataclass pays ``object.__setattr__``
    per field on construction, which at twelve fields was ~1.5 us of every
    RPC.

    Attributes
    ----------
    value:
        Operation-specific payload (a value, a list of key/value pairs, a
        count, or a success flag).
    latency_seconds:
        Simulated latency charged for the operation.
    node_id:
        The node that served the request (``-1`` when several did).
    keys_touched:
        How many keys the request read or wrote; used to verify operation
        bounds in tests.  For a server-side-filtered range request this is
        the number of keys *examined* (filtered-out keys are still work).
    last_examined_key:
        For filtered range requests: the last key the scan examined, which
        may be later than the last key it shipped.  Pagination cursors must
        resume after the examined position or they would re-examine (and
        re-filter) the same entries forever.
    hinted:
        Down replicas that received a hint instead of the write; the
        triggering client's trace attributes the deferred replay to it.
    repaired:
        Stale replicas read-repaired in the background of this request.
    payload_bytes:
        Bytes shipped back to the client (0 for writes and counts).
    queue_wait_seconds:
        Queue wait paid by the replica on the latency critical path of a
        quorum point read (zero outside serving mode, and for writes and
        ranges, whose critical-path attribution folds queueing into
        service time).
    unavailable_nodes:
        Preference-list replicas the coordinator skipped because they were
        down or unreachable.  The calling client feeds these into its
        circuit-breaker board: its own traffic repeatedly observing a
        replica unavailable is exactly the per-node failure signal
        client-side breakers fence on, even when the quorum was still met
        without it.
    """

    value: object
    latency_seconds: float
    node_id: int
    keys_touched: int = 1
    last_examined_key: Optional[bytes] = None
    hinted: int = 0
    repaired: int = 0
    payload_bytes: int = 0
    queue_wait_seconds: float = 0.0
    unavailable_nodes: Tuple[int, ...] = ()


class KeyValueCluster:
    """An in-process simulation of a partitioned, replicated key/value store."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        # Read per key and per write; the config is frozen, and its
        # properties cost a call each time.
        self._read_quorum = self.config.effective_read_quorum
        self._write_quorum = self.config.effective_write_quorum
        self._namespace_names: Set[str] = set()
        self._offered_load_total = 0.0
        self.nodes: List[StorageNode] = [
            StorageNode.create(
                node_id=i,
                seed=self.config.seed,
                capacity_ops_per_second=self.config.node_capacity_ops_per_second,
            )
            for i in range(self.config.storage_nodes)
        ]
        self.replication = ReplicationManager(
            replication=self.config.replication,
            vnodes_per_node=self.config.vnodes_per_node,
            seed=self.config.seed,
        )
        self._engine_tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self.engines: Dict[int, StorageEngine] = {}
        for node in self.nodes:
            self.replication.attach_node(
                node.node_id, self._create_engine(node.node_id)
            )
        #: Most recent durable-engine recovery (WAL + segment replay).
        self.last_engine_recovery: Optional[EngineRecovery] = None
        #: Cluster-wide counters (``replication.*``): hinted handoff and
        #: read-repair traffic that no single client's stats can own.
        self.metrics = MetricsRegistry()
        #: Message-level fault plane: every serving RPC (client→node and
        #: node→node) consults it for reachability, drops, and added delay.
        #: Inert by default — a healthy run never touches its RNG.
        self.network = NetworkModel(seed=self.config.seed)

    # ------------------------------------------------------------------
    # Storage engines
    # ------------------------------------------------------------------
    def _create_engine(self, node_id: int) -> StorageEngine:
        """Build (and register) one node's storage engine."""
        options = dict(self.config.engine_options or {})
        if self.config.storage_engine == "lsm" and "data_dir" not in options:
            if self._engine_tmpdir is None:
                self._engine_tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-lsm-"
                )
            options["data_dir"] = self._engine_tmpdir.name
        engine = create_engine(self.config.storage_engine, node_id, **options)
        self.engines[node_id] = engine
        return engine

    def engine(self, node_id: int) -> StorageEngine:
        """The storage engine backing one node."""
        return self.engines[node_id]

    def flush_storage(self) -> None:
        """Flush every engine's buffered state to durable storage."""
        for engine in self.engines.values():
            engine.flush()

    def run_engine_maintenance(self, max_tasks: Optional[int] = None) -> int:
        """Run up to ``max_tasks`` compactions cluster-wide; return the count.

        Background storage maintenance is free in the latency model — it is
        what the serving tier's event kernel schedules between requests, so
        it never appears in any client's charged operation counts.
        """
        ran = 0
        for engine in self.engines.values():
            budget = None if max_tasks is None else max_tasks - ran
            if budget is not None and budget <= 0:
                break
            ran += engine.run_maintenance(budget)
        if ran:
            self.metrics.add("engine.compactions", ran)
        return ran

    def close(self) -> None:
        """Close every engine (flushing durable state) and drop temp dirs."""
        for engine in self.engines.values():
            engine.close()
        if self._engine_tmpdir is not None:
            self._engine_tmpdir.cleanup()
            self._engine_tmpdir = None

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> StorageNode:
        """The node with the given id (ids are contiguous list positions)."""
        return self.nodes[node_id]

    def live_ids(self, seen_from: Optional[int] = None) -> List[int]:
        """The membership view: ids of the nodes that are up, ascending.

        With ``seen_from`` (an endpoint of the fault plane) only the nodes
        that endpoint can reach.  Request paths pass
        :data:`~repro.kvstore.network.CLIENT` and resolve the view once per
        request: a partitioned-away node is indistinguishable from a crashed
        one to the coordinator, so both are treated the same there; they
        differ only in recovery (a partitioned node needs no hint replay for
        writes it already applied).  Tooling that runs beside the store
        (bulk load, backfill, diagnostics) asks for the up nodes only.
        """
        network = self.network
        if seen_from is None or not network.active:
            return [node.node_id for node in self.nodes if node.up]
        return [
            node.node_id
            for node in self.nodes
            if node.up and network.reachable(seen_from, node.node_id)
        ]

    def crash_node(self, node_id: int) -> StorageNode:
        """Take a node down; its replicas stop serving until recovery.

        On a durable engine the crash is real: all volatile state (memtable,
        open segment readers) is lost and only the WAL and segment files
        survive.  The in-memory dict engine keeps its state in-process —
        the seed simulator's behaviour — and catches up purely through
        hinted handoff and anti-entropy.
        """
        node = self.node(node_id)
        node.mark_down()
        engine = self.engines.get(node_id)
        if engine is not None and engine.durable:
            engine.crash()
            self.replication.clear_range_memo()
        return node

    def recover_node(self, node_id: int, sim_time: float = 0.0) -> RepairReport:
        """Bring a crashed node back: disk recovery, hint replay, anti-entropy.

        A durable engine first rebuilds its pre-crash state from segments
        plus WAL replay (truncating any torn tail, discarding any partially
        written segment).  Hint replay and the anti-entropy pass then cover
        only the *delta* the node missed while down: records recovered from
        disk are already at their pre-crash sequence numbers, so pushing
        them again is a newest-wins no-op and the charged repair traffic is
        identical to the in-memory engine's — acknowledged writes are never
        lost under either engine, and operation counts match arm for arm.

        The records the node catches up on are charged through its latency
        model as one batched write stream per recovery, so a freshly
        recovered node is briefly busy repairing — exactly the failover
        latency the benchmark timeline measures.
        """
        node = self.node(node_id)
        engine = self.engines.get(node_id)
        if engine is not None and engine.durable:
            info = engine.recover()
            self.replication.clear_range_memo()
            self.last_engine_recovery = info
            self.metrics.add("engine.recoveries", 1)
            self.metrics.add("engine.segments_loaded", info.segments_loaded)
            self.metrics.add(
                "engine.wal_records_replayed", info.wal_records_replayed
            )
            self.metrics.add(
                "engine.torn_tail_bytes_dropped", info.torn_tail_bytes_dropped
            )
            self.metrics.add(
                "engine.partial_segments_discarded",
                info.partial_segments_discarded,
            )
        node.mark_up()
        # Anti-entropy can only pull from peers the recovering node can
        # actually talk to: a partition that isolates it defers repair to
        # the next sync after heal.
        report = self.replication.sync_node(node_id, self.live_ids(node_id))
        self._count_catch_up(node_id, report, sim_time)
        return report

    def replay_reachable_hints(self, sim_time: float) -> RepairReport:
        """Replay the hint buffer of every up node (a healed network
        reaches them all again): a write made while a replica was only
        partitioned away, or its link dropped the message, was hinted for
        it.  Counted and charged like :meth:`recover_node`'s replay."""
        total = RepairReport()
        for node_id in self.live_ids():
            if self.replication.hint_count(node_id):
                report = self.replication.replay_hints(node_id)
                self._count_catch_up(node_id, report, sim_time)
                total = total.merged_with(report)
        return total

    def _count_catch_up(
        self, node_id: int, report: RepairReport, sim_time: float
    ) -> None:
        """Count one node's catch-up and charge it the records it received,
        as one batched write stream at ``sim_time``."""
        self.metrics.add("replication.hints_replayed", report.hints_replayed)
        self.metrics.add("replication.repair_keys_copied", report.keys_copied)
        self.metrics.add("replication.repair_bytes_copied", report.bytes_copied)
        copies = report.per_node_copies.get(node_id, 0)
        if copies:
            self.node(node_id).charge_write(
                copies, report.per_node_bytes.get(node_id, 0), sim_time
            )

    # ------------------------------------------------------------------
    # Namespace management
    # ------------------------------------------------------------------
    def create_namespace(self, name: str) -> None:
        """Create an (empty) namespace; creating an existing one is a no-op."""
        self._namespace_names.add(name)

    def namespaces(self) -> List[str]:
        """Names of all namespaces, sorted."""
        return sorted(self._namespace_names)

    def namespace_size(self, name: str) -> int:
        """Number of distinct live keys stored in a namespace.

        Raises :class:`UnavailableError` when enough nodes are down that
        the count could silently miss keys (same rule as range requests).
        """
        self._require(name)
        return self.replication.live_key_count(
            name, self._complete(self.live_ids())
        )

    def iter_namespace(self, name: str) -> Iterator[KeyValue]:
        """Iterate a namespace's logical ``(key, value)`` content in key order.

        Merges the up replicas newest-wins without charging latency; used by
        index backfill and diagnostics.  Raises
        :class:`UnavailableError` when enough nodes are down that the merge
        could silently miss keys — a backfill run then would build a
        permanently incomplete index.
        """
        self._require(name)
        return self.replication.iter_live(name, self._complete(self.live_ids()))

    def _require(self, name: str) -> None:
        if name not in self._namespace_names:
            raise ExecutionError(f"unknown namespace: {name!r}")

    # ------------------------------------------------------------------
    # Placement / replica selection
    # ------------------------------------------------------------------
    def _read_replicas(
        self,
        namespace: str,
        key: bytes,
        serving: Set[int],
        backlogs: _Backlogs,
        suspects: Optional[Set[int]] = None,
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """The ``R`` replicas that serve a read of ``key``.

        ``serving`` is the request's membership view (``live_ids(CLIENT)``
        as a set), resolved once however many keys the request carries.
        :func:`~repro.replication.manager.choose_replicas` leaves the
        eligible replicas in the key's read order, and the read goes to the
        ``R`` of them with the least queue backlog in the request's
        ``backlogs`` snapshot (:meth:`_Backlogs.least`).  Returns ``(chosen,
        unavailable)``: the quorum actually used plus the replicas skipped
        as down/unreachable — the caller surfaces the latter so the
        client's breakers can fence nodes its own traffic keeps observing
        unavailable.  Raises :class:`QuorumNotMetError` when fewer than
        ``R`` are serving.
        """
        needed = self._read_quorum
        preference = self.replication.read_preference(namespace, key)
        if not suspects and len(serving) == len(self.nodes):
            # Every node serves and nobody is suspected: the chooser has
            # nothing to choose.  One call per key read is ~1% of
            # ``tpcw_closed``, so the fault-free case does not make it.
            return backlogs.least(preference, needed), ()
        chosen, unavailable, _ = choose_replicas(
            preference, serving, suspects, needed
        )
        if len(chosen) < needed:
            raise QuorumNotMetError("read", namespace, needed, len(chosen))
        return backlogs.least(chosen, needed), unavailable

    def route(
        self,
        namespace: str,
        key: bytes,
        serving: Optional[Set[int]] = None,
    ) -> StorageNode:
        """The node that serves a (single-replica) read for ``key``.

        Request paths that already resolved their serving nodes pass them.
        """
        if serving is None:
            serving = set(self.live_ids(CLIENT))
        use, _, _ = choose_replicas(
            self.replication.read_preference(namespace, key), serving
        )
        if not use:
            raise QuorumNotMetError("read", namespace, 1, 0)
        return self.nodes[use[0]]

    # ------------------------------------------------------------------
    # Load management
    # ------------------------------------------------------------------
    def set_offered_load(self, total_ops_per_second: float) -> None:
        """Spread an offered operation rate evenly over the up nodes.

        The benchmark harness calls this to model a cluster serving a given
        aggregate request rate; each node's utilisation then inflates its
        latencies through the queueing factor.
        """
        self._offered_load_total = total_ops_per_second
        up = len(self.live_ids())
        per_node = total_ops_per_second / up if up else 0.0
        for node in self.nodes:
            node.set_offered_load(per_node if node.up else 0.0)

    def total_capacity_ops_per_second(self) -> float:
        """Aggregate sustainable operation rate of the live (up) node set."""
        return sum(
            node.effective_capacity_ops_per_second
            for node in self.nodes
            if node.up
        )

    def add_node(self) -> StorageNode:
        """Grow the cluster by one storage node (elastic provisioning).

        The new node joins the placement ring and an anti-entropy pass
        copies it the records it now owns (and prunes them from the nodes
        that lost them) — data migration is modelled as background work
        that does not contend with foreground traffic.
        ``config.storage_nodes`` keeps the provisioned size;
        ``len(cluster.nodes)`` is the live size.
        """
        # node_id doubles as the node's index in ``self.nodes`` (replica
        # placement and batched reads rely on it), so ids stay contiguous:
        # removals pop from the tail and additions reuse the next slot.
        node = StorageNode.create(
            node_id=len(self.nodes),
            seed=self.config.seed,
            capacity_ops_per_second=self.config.node_capacity_ops_per_second,
        )
        self.nodes.append(node)
        self.replication.attach_node(
            node.node_id, self._create_engine(node.node_id)
        )
        live = self.live_ids()
        self.replication.rebalance(
            [nid for nid in live if nid != node.node_id], set(live)
        )
        self._respread_static_load()
        return node

    def can_remove_node(self) -> bool:
        """Whether removing the tail node keeps the replication invariant.

        Both the provisioned size and the number of *up* members must stay
        at or above the replication factor; otherwise quorums (and the
        ``ClusterConfig`` invariant ``replication <= storage_nodes``) would
        be silently violated.
        """
        if len(self.nodes) <= self.config.replication:
            return False
        up_after = len(self.live_ids()) - self.nodes[-1].up
        return up_after >= self.config.replication

    def remove_node(self) -> StorageNode:
        """Shrink the cluster by one node (the most recently added).

        The leaving node's records are re-replicated onto the surviving
        nodes (using its own store as a source while it is still readable)
        before it is forgotten.  Raises :class:`UnavailableError` when the
        removal would leave fewer nodes — provisioned or up — than the
        replication factor.
        """
        if not self.can_remove_node():
            raise UnavailableError(
                "cannot shrink the cluster below the replication factor "
                f"({self.config.replication}): {len(self.nodes)} provisioned, "
                f"{len(self.live_ids())} up"
            )
        node = self.nodes[-1]
        manager = self.replication
        manager.ring.remove_node(node.node_id)
        sources = self.live_ids()  # still includes the tail if it is up
        manager.rebalance(sources, set(sources) - {node.node_id})
        manager.forget_node(node.node_id)
        departing = self.engines.pop(node.node_id, None)
        if departing is not None:
            departing.destroy()
        self.nodes.pop()
        self._respread_static_load()
        return node

    def _respread_static_load(self) -> None:
        """After a topology change, re-spread a statically configured load.

        Only when a static aggregate load was set: if per-node utilisation
        is being driven from measured rates (the serving tier's control
        loop), re-spreading would wipe those measurements with zeros — the
        next control tick refreshes them instead.
        """
        if self._offered_load_total > 0:
            self.set_offered_load(self._offered_load_total)

    def reset_stats(self) -> None:
        """Reset per-node operation counters and cluster-wide metrics."""
        for node in self.nodes:
            node.stats.reset()
        self.metrics.reset()

    def metrics_snapshot(self) -> MetricsRegistry:
        """Cluster metrics plus every node's counters rolled into one registry."""
        combined = self.metrics.snapshot()
        for node in self.nodes:
            combined.merge(node.stats.metrics)
        return combined

    def reseed_latency_models(self, seed: int) -> None:
        """Reset every node's service-time noise stream.

        Paired experiments call this before each arm so both replay the
        same stragglers and the measured difference reflects the arms'
        request shapes, not which run drew the bad luck.
        """
        for node in self.nodes:
            node.latency_model.reseed(seed * 10_007 + node.node_id)

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def load(self, namespace: str, key: bytes, value: bytes) -> None:
        """Store a key on every replica without charging any latency.

        Used for bulk-loading benchmark datasets; the paper's experiments
        likewise bulk load their data before measuring (Section 8.4).
        Replicas that happen to be down receive hints like any other write.
        """
        self._load_record(namespace, key, value)

    def load_delete(self, namespace: str, key: bytes) -> None:
        """Tombstone a key on every replica without charging any latency.

        The deletion counterpart of :meth:`load`; used by the bulk-load and
        backfill paths of view maintenance, whose bounded top-k indexes must
        evict entries while data is being loaded.
        """
        self._load_record(namespace, key, None)

    def _load_record(
        self, namespace: str, key: bytes, value: Optional[bytes]
    ) -> None:
        record, up = self._sequence_load(namespace, key, value)
        for node_id in up:
            # Sequenced just now: newer than anything stored.
            self.replication.stores[node_id].write_fresh(namespace, key, record)

    def _sequence_load(
        self, namespace: str, key: bytes, value: Optional[bytes]
    ) -> Tuple[bytes, List[int]]:
        """Sequence one bulk-loaded record and hint its down replicas;
        returns the record and the replicas to store it on.

        Loading runs beside the store, once per record: it asks the key's
        own replicas whether they are up instead of resolving a membership
        view, which costs a pass over every node.
        """
        self._require(namespace)
        record = encode_record(self.replication.next_seq(), value)
        up: List[int] = []
        for node_id in self.replication.preference_list(namespace, key):
            if self.nodes[node_id].up:
                up.append(node_id)
            else:
                self._hint((node_id,), namespace, key, record)
        return record, up

    def _hint(
        self, node_ids: Sequence[int], namespace: str, key: bytes, record: bytes
    ) -> int:
        """Defer the copies of ``record`` that cannot be delivered now: the
        coordinator buffers one hint per replica and replays it when the
        replica recovers.  Returns how many were buffered."""
        for node_id in node_ids:
            self.replication.add_hint(node_id, namespace, key, record)
        if node_ids:
            self.metrics.add("replication.hints_added", len(node_ids))
        return len(node_ids)

    def bulk_load_many(
        self,
        triples: Iterator[Tuple[str, bytes, bytes]],
        memory_budget_bytes: int = 16 << 20,
    ) -> int:
        """Bulk load a ``(namespace, key, value)`` stream under a byte budget.

        Equivalent to calling :meth:`load` per triple (same records, same
        sequence numbers, same hinting for down replicas, zero charged
        latency) but memory-budgeted end to end: records are staged in one
        spilling sort pool partitioned by ``(destination node, namespace)``,
        then each node's engine ingests its partitions through
        ``bulk_load`` — on the LSM engine that builds a sorted segment
        directly, bypassing both the memtable and the WAL (the segment
        rename is the commit point).  Duplicate keys in the stream resolve
        last-wins, exactly as repeated :meth:`load` calls would.  Returns
        the number of triples consumed.
        """
        count = 0
        with tempfile.TemporaryDirectory(prefix="repro-bulkload-") as staging:
            pool = SpillPool(
                os.path.join(staging, "by-node"), memory_budget_bytes
            )
            try:
                for namespace, key, value in triples:
                    record, up = self._sequence_load(namespace, key, value)
                    for node_id in up:
                        pool.add(f"{node_id}:{namespace}", key, record)
                    count += 1
                for partition in pool.namespaces():
                    node_str, namespace = partition.split(":", 1)
                    self.engines[int(node_str)].bulk_load(
                        namespace, pool.iter_namespace(partition)
                    )
            finally:
                # The engines' loads change replica content past every
                # ReplicaStore door.
                self.replication.clear_range_memo()
                pool.close()
        return count

    def bulk_load_namespace(
        self,
        namespace: str,
        items: Iterator[KeyValue],
        memory_budget_bytes: int = 16 << 20,
    ) -> int:
        """Bulk load one namespace's ``(key, value)`` stream (see
        :meth:`bulk_load_many`)."""
        self._require(namespace)
        return self.bulk_load_many(
            ((namespace, key, value) for key, value in items),
            memory_budget_bytes,
        )

    def peek(self, namespace: str, key: bytes) -> Optional[bytes]:
        """Latency-free newest-wins read of one key (bulk load / tooling).

        Resolves across the up replicas of the key's preference list without
        charging any node or advancing any clock, and without read repair.
        Raises :class:`~repro.errors.UnavailableError` when every replica is
        down — a down replica's store may predate hinted writes, so reading
        it could silently return stale state into a view backfill.
        """
        self._require(namespace)
        prefs = self.replication.preference_list(namespace, key)
        up = [node_id for node_id in prefs if self.nodes[node_id].up]
        if not up:
            raise UnavailableError(
                f"all {len(prefs)} replicas of the key are down"
            )
        _, record = self.replication.newest_record(namespace, key, up)
        if record is None:
            return None
        return decode_record(record)[1]

    def peek_range(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[KeyValue]:
        """Latency-free merged range read (bulk load / tooling).

        Applies the same availability rule as :meth:`iter_namespace`: when
        enough nodes are down that the merge could silently miss keys, it
        raises instead of letting a view backfill build permanently
        incomplete state.
        """
        self._require(namespace)
        pairs, _ = self.replication.merged_range(
            namespace, self._complete(self.live_ids()), None,
            start, end, limit, ascending,
        )
        return pairs

    # ------------------------------------------------------------------
    # Quorum write internals
    # ------------------------------------------------------------------
    def _quorum_write(
        self,
        namespace: str,
        key: bytes,
        value: Optional[bytes],
        sim_time: float,
        operation: str,
        serving: Set[int],
        suspects: Optional[Set[int]] = None,
    ) -> Tuple[float, int, int, Tuple[int, ...]]:
        """Write a record (or tombstone) to a key's replicas.

        Sends to every replica in ``serving``, the request's membership view
        (``live_ids(CLIENT)`` as a set; down or unreachable replicas get
        hints), charges each destination, and returns ``(ack latency,
        primary node id, hints, unavailable replicas observed)`` where the
        ack latency is the ``W``-th fastest replica's — the coordinator
        answers the client as soon as the write quorum is met — and
        ``hints`` counts replicas whose copy was deferred.  The
        unavailable list names only the replicas skipped as down or
        unreachable (membership view) — suspect-skips and flaky drops are
        excluded, so a client feeding it into its breaker board can never
        keep a breaker open on its own suspicion.

        Flaky links can drop individual replica messages; a dropped copy is
        hinted (the coordinator's timeout fires and it falls back to the
        hint queue) and does **not** count toward the quorum.  When drops
        leave fewer than ``W`` acknowledged copies the write surfaces as an
        :class:`~repro.errors.RpcTimeoutError` — the replicas that did
        apply it are ahead, which is safe: the write was never acknowledged
        and newest-wins convergence handles the remainder.

        ``suspects`` (breaker-open nodes at the calling client) are hinted
        early *when the quorum is already met without them* — converting a
        probably-doomed RPC into deferred replay instead of a timeout.
        """
        prefs = self.replication.preference_list(namespace, key)
        needed = self._write_quorum
        send, unavailable, demoted = choose_replicas(
            prefs, serving, suspects, needed
        )
        if len(send) < needed:
            raise QuorumNotMetError(operation, namespace, needed, len(send))
        record = encode_record(self.replication.next_seq(), value)
        nbytes = len(value) if value is not None else 0
        hints = 0
        if unavailable or demoted:
            hints = self._hint(
                [*unavailable, *demoted], namespace, key, record
            )
        delays = None
        if self.network.active:
            # A lost message (or ack) fires the coordinator's per-replica
            # timeout, which falls back to the hint queue.
            lost: List[int] = []
            delays = self._deliver(operation, namespace, send, lost)
            hints += self._hint(lost, namespace, key, record)
            send = [node_id for node_id in send if node_id in delays]
        latencies: List[float] = []
        for node_id in send:
            # ``record`` was sequenced by this call: newer than anything
            # the replica holds, so it is stored without the checked read.
            self.replication.stores[node_id].write_fresh(
                namespace, key, record
            )
            latency = self.nodes[node_id].charge_write(1, nbytes, sim_time)
            if delays:
                latency += delays[node_id]
            latencies.append(latency)
        if len(latencies) < needed:
            raise RpcTimeoutError(operation, namespace)
        latencies.sort()
        return latencies[needed - 1], prefs[0], hints, unavailable

    def _resolve_newest(
        self, namespace: str, key: bytes, chosen: Sequence[int]
    ) -> Tuple[
        Optional[bytes], Optional[bytes], List[int], List[Tuple[int, int, int]]
    ]:
        """Resolve a key across ``chosen`` replicas in one pass.

        Returns ``(newest record, its live value, stale replica ids,
        reads)``: the value is ``None`` for a tombstone or a key no replica
        has heard of, and ``reads[i]`` is ``(chosen[i], 1, payload bytes)``
        — the one key that replica itself shipped, what its read RPC is
        charged for (:meth:`_await_reads`).  Each observed
        record is unpacked once (a copy equal to the newest so far not at
        all).  Shared by the single-key and batched read paths so conflict
        resolution can never diverge between them.
        """
        stores = self.replication.stores
        best_seq = MISSING_SEQ
        best_record: Optional[bytes] = None
        best_size = 0
        value: Optional[bytes] = None
        seqs: List[int] = []
        reads: List[Tuple[int, int, int]] = []
        for node_id in chosen:
            record = stores[node_id].get_record(namespace, key)
            if record is None:
                seq, size = MISSING_SEQ, 0
            elif record == best_record:
                seq, size = best_seq, best_size
            else:
                seq, payload = decode_record(record)
                size = len(payload) if payload is not None else 0
                if seq > best_seq:
                    best_seq, best_record, best_size, value = (
                        seq, record, size, payload,
                    )
            seqs.append(seq)
            reads.append((node_id, 1, size))
        # Replicas agree far more often than not; ``min`` is the cheap test.
        stale = (
            [node_id for node_id, seq in zip(chosen, seqs) if seq < best_seq]
            if min(seqs) < best_seq
            else []
        )
        return best_record, value, stale, reads

    def _read_one(
        self,
        namespace: str,
        key: bytes,
        sim_time: float,
        serving: Set[int],
        backlogs: _Backlogs,
        suspects: Optional[Set[int]] = None,
    ) -> Tuple[Optional[bytes], float, int, int, float, Tuple[int, ...]]:
        """Quorum read of one key: ``(live value, latency, serving node,
        repairs, critical queue wait, unavailable replicas observed)``.

        Charges each of the ``R`` replicas :meth:`_read_replicas` chooses
        (with the request's ``backlogs`` snapshot) one read RPC (the client
        waits for all of them, so the latency is their maximum), resolves
        newest-wins, and read-repairs any stale replica in the background
        (charged to the replica, not to the client); ``repairs`` counts the
        repairs applied so the triggering read's trace can attribute them.

        On a flaky link any of the ``R`` messages may be dropped; the read
        then raises :class:`~repro.errors.RpcTimeoutError` *before* any
        charge or repair is applied — a lost reply means the coordinator
        learned nothing.
        """
        chosen, unavailable = self._read_replicas(
            namespace, key, serving, backlogs, suspects
        )
        delays = (
            self._deliver("get", namespace, chosen)
            if self.network.active
            else None
        )
        best_record, value, stale, reads = self._resolve_newest(
            namespace, key, chosen
        )
        latency, queue_wait, repaired = self._await_reads(
            namespace, reads, delays,
            {node_id: [(key, best_record)] for node_id in stale}, sim_time,
        )
        return value, latency, chosen[0], repaired, queue_wait, unavailable

    def _deliver(
        self,
        operation: str,
        namespace: str,
        node_ids: Iterable[int],
        lost: Optional[List[int]] = None,
    ) -> Dict[int, float]:
        """Put one client→node message per node through the fault plane.

        The only place the request path asks the fault plane anything, and
        entered only while it is active.  Messages are drawn in the order of
        ``node_ids`` — with a flaky link the draw order decides which
        message is lost, so it is part of the contract.  Returns the delay
        each delivered reply picks up on its link.  A lost message is
        counted, and then: a read or a range cannot use part of an answer,
        so (``lost`` not given) the first one raises
        :class:`~repro.errors.RpcTimeoutError` before anything was charged
        and nothing further is drawn; a caller that can go on without the
        node — a write hints it, a batched read draws the rest of the key
        first — passes the list that collects the lost node ids.
        """
        network = self.network
        delays: Dict[int, float] = {}
        for node_id in node_ids:
            if network.delivers(CLIENT, node_id):
                delays[node_id] = network.delay_seconds(CLIENT, node_id)
                continue
            self.metrics.add("network.dropped", 1)
            if lost is None:
                raise RpcTimeoutError(operation, namespace, node_id)
            lost.append(node_id)
        return delays

    def _await_reads(
        self,
        namespace: str,
        reads: Iterable[Tuple[int, int, int]],
        delays: Optional[Mapping[int, float]],
        repairs: Mapping[int, Sequence[Tuple[bytes, bytes]]],
        sim_time: float,
    ) -> Tuple[float, float, int]:
        """Charge replica reads that are in flight together and repair what
        they found stale: ``(latency, critical queue wait, repairs)``.

        ``reads`` are ``(node, keys, bytes)``, one read RPC each, plus the
        node's link delay from ``delays`` (``None`` or empty: no fault
        plane).  The client waits for all of them, so the latency is their
        maximum.  ``repairs`` maps each stale replica to the ``(key, newest
        record)`` pairs it is behind on; those that still apply are written
        in one background RPC per replica, charged to the replica and not to
        the client.
        """
        latency = 0.0
        queue_wait = 0.0
        for node_id, count, nbytes in reads:
            node = self.nodes[node_id]
            rpc = node.charge_read(count, nbytes, sim_time)
            if delays:
                rpc += delays[node_id]
            if rpc >= latency:
                # This replica is (so far) the latency critical path; its
                # queue wait is the read's attributable queueing delay.
                latency = rpc
                queue_wait = node.last_queue_wait_seconds
        repaired = 0
        for node_id, records in repairs.items():
            store = self.replication.stores[node_id]
            applied = 0
            nbytes = 0
            for key, record in records:
                if store.apply_record(namespace, key, record):
                    applied += 1
                    nbytes += len(record)
            if applied:
                self.nodes[node_id].charge_write(applied, nbytes, sim_time)
                repaired += applied
        if repaired:
            self.metrics.add("replication.read_repairs", repaired)
        return latency, queue_wait, repaired

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(
        self,
        namespace: str,
        key: bytes,
        sim_time: float = 0.0,
        suspects: Optional[Set[int]] = None,
    ) -> OpResult:
        """Read one key (one quorum read); ``value`` is the bytes stored or
        ``None``."""
        self._require(namespace)
        value, latency, node_id, repaired, queue_wait, unavailable = (
            self._read_one(
                namespace, key, sim_time, set(self.live_ids(CLIENT)),
                _Backlogs(self.nodes, sim_time), suspects,
            )
        )
        return OpResult(
            value, latency, node_id, keys_touched=1, repaired=repaired,
            payload_bytes=len(value) if value is not None else 0,
            queue_wait_seconds=queue_wait, unavailable_nodes=unavailable,
        )

    def put(
        self,
        namespace: str,
        key: bytes,
        value: bytes,
        sim_time: float = 0.0,
        suspects: Optional[Set[int]] = None,
    ) -> OpResult:
        """Write one key to its replica set; acks at the write quorum."""
        self._require(namespace)
        latency, primary, hints, unavailable = self._quorum_write(
            namespace, key, value, sim_time, "put", set(self.live_ids(CLIENT)),
            suspects,
        )
        return OpResult(
            True, latency, primary, keys_touched=1, hinted=hints,
            unavailable_nodes=unavailable,
        )

    def delete(
        self,
        namespace: str,
        key: bytes,
        sim_time: float = 0.0,
        suspects: Optional[Set[int]] = None,
    ) -> OpResult:
        """Delete one key (a replicated tombstone); ``value`` is whether it existed."""
        self._require(namespace)
        serving = set(self.live_ids(CLIENT))
        available, _, _ = choose_replicas(
            self.replication.preference_list(namespace, key), serving
        )
        _, newest = self.replication.newest_record(namespace, key, available)
        existed = newest is not None and decode_record(newest)[1] is not None
        latency, primary, hints, unavailable = self._quorum_write(
            namespace, key, None, sim_time, "delete", serving, suspects
        )
        return OpResult(
            existed, latency, primary, keys_touched=1, hinted=hints,
            unavailable_nodes=unavailable,
        )

    def test_and_set(
        self,
        namespace: str,
        key: bytes,
        expected: Optional[bytes],
        new_value: bytes,
        sim_time: float = 0.0,
        suspects: Optional[Set[int]] = None,
    ) -> OpResult:
        """Compare-and-swap; ``value`` is ``True`` iff the swap happened.

        A quorum read establishes the current value, then (on match) a
        quorum write installs the new one; the two phases are sequential,
        so the charged latency is their sum.
        """
        self._require(namespace)
        serving = set(self.live_ids(CLIENT))
        current, read_latency, node_id, repaired, _, unavailable = (
            self._read_one(
                namespace, key, sim_time, serving,
                _Backlogs(self.nodes, sim_time), suspects,
            )
        )
        if current != expected:
            return OpResult(
                False, read_latency, node_id, keys_touched=1,
                repaired=repaired, unavailable_nodes=unavailable,
            )
        write_latency, primary, hints, w_unavailable = self._quorum_write(
            namespace, key, new_value, sim_time, "test_and_set", serving,
            suspects,
        )
        return OpResult(
            True, read_latency + write_latency, primary, keys_touched=1,
            hinted=hints, repaired=repaired,
            unavailable_nodes=tuple(dict.fromkeys(unavailable + w_unavailable)),
        )

    # ------------------------------------------------------------------
    # Batched point reads
    # ------------------------------------------------------------------
    def multi_get(
        self,
        namespace: str,
        keys: Sequence[bytes],
        parallel: bool = True,
        sim_time: float = 0.0,
        suspects: Optional[Set[int]] = None,
    ) -> OpResult:
        """Read many keys in one logical request.

        The serving set and the nodes' queue backlogs are read once for the
        batch; every key then picks its ``R`` replicas from them exactly as
        a single :meth:`get` would.  When ``parallel`` is true the replica
        reads are grouped by serving node, each group is charged a single
        RPC, and the overall latency is the maximum over groups (requests
        issued concurrently).
        When false the keys are fetched one at a time and latencies add up —
        this is what the Lazy executor of Figure 12 does.
        """
        self._require(namespace)
        if not keys:
            return OpResult([], 0.0, 0, keys_touched=0)
        serving = set(self.live_ids(CLIENT))
        backlogs = _Backlogs(self.nodes, sim_time)
        values: List[Optional[bytes]] = []
        repaired = 0
        unavailable_seen: Dict[int, None] = {}
        if not parallel:
            latency = 0.0
            for key in keys:
                value, key_latency, _, key_repairs, _, key_unavail = (
                    self._read_one(
                        namespace, key, sim_time, serving, backlogs, suspects
                    )
                )
                values.append(value)
                latency += key_latency
                repaired += key_repairs
                for nid in key_unavail:
                    unavailable_seen[nid] = None
            return OpResult(
                values, latency, -1, keys_touched=len(keys), repaired=repaired,
                payload_bytes=sum(len(v) for v in values if v is not None),
                unavailable_nodes=tuple(unavailable_seen),
            )
        # Parallel: every key's R replica reads happen concurrently, one
        # batched RPC per involved node.  Each key is resolved in a single
        # pass over its replicas; the per-node RPC charges are sized from
        # the payloads observed during that pass.
        faults = self.network.active
        group_keys: Dict[int, int] = {}
        group_bytes: Dict[int, int] = {}
        repairs: Dict[int, List[Tuple[bytes, bytes]]] = {}
        delays: Dict[int, float] = {}
        lost: List[int] = []
        for key in keys:
            chosen, key_unavail = self._read_replicas(
                namespace, key, serving, backlogs, suspects
            )
            for nid in key_unavail:
                unavailable_seen[nid] = None
            if faults:
                # One batched RPC per node: a node's message is drawn the
                # first time a key chooses it; the first key that chose a
                # lost one voids the batch, nothing charged or repaired.
                delays.update(self._deliver(
                    "multi_get", namespace,
                    [nid for nid in chosen if nid not in delays], lost,
                ))
                if lost:
                    raise RpcTimeoutError("multi_get", namespace, lost[0])
            best_record, value, stale, reads = self._resolve_newest(
                namespace, key, chosen
            )
            for node_id, _, size in reads:
                group_keys[node_id] = group_keys.get(node_id, 0) + 1
                group_bytes[node_id] = group_bytes.get(node_id, 0) + size
            for node_id in stale:
                repairs.setdefault(node_id, []).append((key, best_record))
            values.append(value)
        latency, queue_wait, repaired = self._await_reads(
            namespace,
            (
                (node_id, count, group_bytes[node_id])
                for node_id, count in group_keys.items()
            ),
            delays, repairs, sim_time,
        )
        return OpResult(
            values, latency, -1, keys_touched=len(keys), repaired=repaired,
            payload_bytes=sum(group_bytes.values()),
            queue_wait_seconds=queue_wait,
            unavailable_nodes=tuple(unavailable_seen),
        )

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def _complete(self, live: List[int]) -> List[int]:
        """``live`` (a membership view), if a merge over it is complete.

        Every key lives on ``replication`` replicas, so as long as fewer
        nodes than that are missing from the view (:meth:`live_ids`: serving
        paths pass the client, so a partitioned-away node counts as down;
        tooling keeps the up-only rule), at least one replica of every key
        is in it and the merged result is complete.  With more missing the
        result could silently lack keys, so the request raises before any
        node is charged.
        """
        down = len(self.nodes) - len(live)
        if down >= self.config.replication:
            raise UnavailableError(
                f"range request with {down} node(s) down (replication="
                f"{self.config.replication}): results could silently miss "
                "keys"
            )
        return live

    def _range_nodes(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        live: List[int],
    ) -> Tuple[List[int], Optional[bytes], Sequence[int]]:
        """The nodes a range request merges, the leading value when they are
        one replica group (else ``None``), and the group's replicas skipped
        as down or unreachable.

        A bounded range inside one leading value
        (:meth:`ReplicationManager.range_group`) merges the live replicas of
        that group, in ``start``'s read order, and :meth:`_range_over`
        serves it at the one with the least queue backlog.  The replicas
        skipped as down or unreachable go back to the client as breaker
        evidence, as a point read's do.  A group with no live
        replica raises before any node is charged.  Any other range — unbounded, or across
        leading values — merges every node of ``live``
        (:meth:`_complete`); a bounded one that is served counts as
        ``replication.range_fallbacks``.
        """
        if start is not None and end is not None:
            found = self.replication.range_group(namespace, start, end)
            if found is not None:
                lead, group = found
                if len(live) == len(self.nodes):
                    # Every node serves: nothing to choose (as in
                    # ``_read_replicas``).
                    return group, lead, ()
                use, unavailable, _ = choose_replicas(group, set(live))
                if not use:
                    raise UnavailableError(
                        f"all {len(group)} replicas of the range's group "
                        "are down"
                    )
                return use, lead, unavailable
            nodes = self._complete(live)
            self.metrics.add("replication.range_fallbacks", 1)
            return nodes, None, ()
        return self._complete(live), None, ()

    def get_range(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
        sim_time: float = 0.0,
        record_filter: Optional[RecordFilter] = None,
    ) -> OpResult:
        """Return ``(key, value)`` pairs with ``start <= key < end``.

        The logical result merges replica slices newest-wins (tombstones
        suppress deleted keys).  A bounded range inside one leading value
        merges only its replica group's live replicas (:meth:`_range_nodes`)
        and is one range RPC at the one of them with the least queue
        backlog, ties going to ``start``'s read order (:meth:`_range_over`),
        so its latency is one draw that stays flat as the cluster grows; an
        empty one is a probe RPC at that replica.
        A bounded range across leading values merges every up node and is
        billed to the last of them.  An unbounded scan visits every up node
        one after another (the rows are billed to the last one) and the
        latencies *sum*, which is what makes table scans scale-dependent.

        ``record_filter`` is the server-side predicate-pushdown hook: each
        merged record is offered to the filter and only matching records
        are shipped (and later deserialised) — but every *examined* record
        is charged to the node the range is billed to, and ``limit`` caps
        examined records (not matches), so a filtered scan does exactly the
        same bounded work as fetching the range and filtering client-side.
        """
        self._require(namespace)
        nodes, lead, unavailable = self._range_nodes(
            namespace, start, end, self.live_ids(CLIENT)
        )
        pairs, latency, node_id, examined, last_examined, nbytes = self._range_over(
            namespace, nodes, lead, start, end, limit, ascending, sim_time,
            _Backlogs(self.nodes, sim_time), record_filter,
        )
        return OpResult(
            pairs, latency, node_id, keys_touched=examined,
            last_examined_key=last_examined, payload_bytes=nbytes,
            unavailable_nodes=tuple(unavailable),
        )

    def _range_over(
        self,
        namespace: str,
        nodes: List[int],
        lead: Optional[bytes],
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int],
        ascending: bool,
        sim_time: float,
        backlogs: _Backlogs,
        record_filter: Optional[RecordFilter] = None,
    ) -> _RangeAnswer:
        """One range request over already-resolved replicas.

        ``nodes`` and ``lead`` are what :meth:`_range_nodes` chose: the
        replicas in ``start``'s read order, and the leading value when they
        are one replica group.  A group's range is served at its replica
        with the least queue backlog in the request's ``backlogs`` snapshot
        (:meth:`_Backlogs.least`), chosen after the merge so the memo keeps
        one entry per group whichever replica serves.  A merge
        served from the memo is charged exactly like one merged afresh: the
        merge hands back its payload byte total, so an unfiltered range
        charges without a pass over its rows.
        """
        rows, nbytes = self.replication.merged_range(
            namespace, nodes, lead, start, end, limit, ascending
        )
        group = lead is not None
        bounded = start is not None and end is not None
        # The one place a range's serving node is chosen: a group's
        # least-backlog live replica; for an all-node merge, the last node
        # it visits.
        server = backlogs.least(nodes, 1)[0] if group else nodes[-1]
        if bounded and not rows:
            # Empty range: one probe RPC at the replica that would serve
            # its rows, or, across groups, the first serving replica in
            # ``start``'s read order -- what ``route`` picks.
            probe = (
                self.nodes[server] if group
                else self.route(namespace, start, set(nodes))
            )
            return [], probe.charge_range(0, 0, sim_time), probe.node_id, 0, None, 0
        examined = len(rows)
        if record_filter is None:
            pairs = rows
        else:
            pairs = [(key, value) for key, value in rows if record_filter(key, value)]
            nbytes = sum([len(value) for _, value in pairs])
        serving = server if rows else -1
        # One range RPC per visited node: a bounded range visits the node
        # that served its rows; a full or half-open scan must visit every
        # partition, one after another.  Any lost slice voids the whole
        # merged result (nothing has been charged yet, so no partial state
        # is left behind).
        visited = (serving,) if bounded else nodes
        delays = (
            self._deliver("get_range", namespace, visited)
            if self.network.active
            else None
        )
        latency = 0.0
        for node_id in visited:
            if node_id == serving:
                seen, shipped, size = examined, len(pairs), nbytes
            else:
                seen = shipped = size = 0
            if record_filter is None:
                rpc = self.nodes[node_id].charge_range(shipped, size, sim_time)
            else:
                rpc = self.nodes[node_id].charge_filtered_range(
                    seen, shipped, size, sim_time
                )
            latency += rpc + delays[node_id] if delays else rpc
        last_examined = rows[-1][0] if rows else None
        return (
            pairs, latency, serving if bounded else -1, examined,
            last_examined, nbytes,
        )

    def multi_get_range(
        self,
        namespace: str,
        ranges: Sequence[Tuple[Optional[bytes], Optional[bytes], Optional[int], bool]],
        parallel: bool = True,
        sim_time: float = 0.0,
    ) -> OpResult:
        """Issue several bounded range requests as one logical request.

        Used by the SortedIndexJoin operator, which needs one range request
        per tuple of its child.  With ``parallel=True`` the overall latency
        is the max over the individual requests, otherwise the sum.  Each
        range is served as :meth:`get_range` serves it; the membership view
        and the nodes' queue backlogs are read once per batch.
        """
        if not ranges:
            return OpResult([], 0.0, -1, keys_touched=0)
        self._require(namespace)
        live = self.live_ids(CLIENT)
        backlogs = _Backlogs(self.nodes, sim_time)
        unavailable_seen: Dict[int, None] = {}
        results: List[List[KeyValue]] = []
        latencies: List[float] = []
        keys_touched = 0
        payload_bytes = 0
        for start, end, limit, ascending in ranges:
            nodes, lead, unavailable = self._range_nodes(
                namespace, start, end, live
            )
            for node_id in unavailable:
                unavailable_seen[node_id] = None
            pairs, latency, _, examined, _, nbytes = self._range_over(
                namespace, nodes, lead, start, end, limit, ascending, sim_time,
                backlogs,
            )
            results.append(pairs)
            latencies.append(latency)
            keys_touched += examined
            payload_bytes += nbytes
        latency = max(latencies) if parallel else sum(latencies)
        return OpResult(
            results, latency, -1, keys_touched=keys_touched,
            payload_bytes=payload_bytes,
            unavailable_nodes=tuple(unavailable_seen),
        )

    def count_range(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        sim_time: float = 0.0,
    ) -> OpResult:
        """Count keys in a range (used by the cardinality insert protocol).

        The count is resolved against the replicas :meth:`_range_nodes`
        picks (a bounded range inside one leading value: its group's live
        replicas); the cost is one counter-probe RPC, whatever the count,
        matching the paper's constant-cost cardinality check.  The probe
        goes to the node :meth:`route` picks for the range's start key
        (``b""`` when unbounded): the first serving replica in that key's
        read order (:meth:`ReplicationManager.read_preference`), whatever
        its queue backlog.
        """
        self._require(namespace)
        live = self.live_ids(CLIENT)
        nodes, _, unavailable = self._range_nodes(namespace, start, end, live)
        pairs, _ = self.replication.merged_range(
            namespace, nodes, None, start, end
        )
        count = len(pairs)
        anchor = start if start is not None else b""
        node = self.route(namespace, anchor, set(live))
        delay = 0.0
        if self.network.active:
            delay = self._deliver(
                "count_range", namespace, (node.node_id,)
            )[node.node_id]
        latency = node.charge_range(1, 8, sim_time) + delay
        return OpResult(
            count, latency, node.node_id, keys_touched=1,
            unavailable_nodes=tuple(unavailable),
        )
