"""Simulated storage node.

A node's data lives in its :class:`~repro.replication.store.ReplicaStore`
(the replica of every namespace it owns a share of, kept by the
replication manager); :class:`StorageNode` models the *performance* side
only: it has a latency model, a capacity, a current utilisation, and
counters.

This split — exact data semantics, simulated performance — is the key
substitution that lets a single Python process stand in for the paper's
150-machine EC2 cluster while still exercising all of PIQL's code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..obs.metrics import MetricsRegistry, counter_properties
from .latency import LatencyModel

#: The counters a node keeps, as ``(field name, cast)``; registry names are
#: ``node.<field>``.
_NODE_COUNTERS: Tuple[Tuple[str, type], ...] = (
    ("gets", int),
    ("puts", int),
    ("range_requests", int),
    ("keys_read", int),
    ("range_rows", int),
    ("keys_written", int),
    ("keys_filtered", int),
    ("total_latency_seconds", float),
    ("queue_wait_seconds", float),
)


class NodeStats:
    """Operation counters for one storage node, registry-backed.

    ``keys_filtered`` counts keys examined by a server-side range filter but
    not shipped to the client (predicate pushdown; the examination is still
    charged); ``range_rows`` counts the rows of the range RPCs this node
    served (examined rows, for a filtered range).  All fields are read-only
    views of ``node.*`` metrics in :attr:`metrics`; :meth:`reset` and
    snapshots are generic over the registry's names.
    """

    __slots__ = ("metrics",)

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def reset(self) -> None:
        self.metrics.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name, _ in _NODE_COUNTERS
        )
        return f"NodeStats({fields})"


counter_properties(NodeStats, "node", _NODE_COUNTERS)


@dataclass
class StorageNode:
    """Performance model of one storage server.

    Parameters
    ----------
    node_id:
        Position of the node in the cluster.
    latency_model:
        Service-time model used to charge requests served by this node.
    capacity_ops_per_second:
        Sustainable operation rate; offered load above this drives queueing
        delay through the utilisation factor.
    """

    node_id: int
    latency_model: LatencyModel
    capacity_ops_per_second: float = 4000.0
    utilization: float = 0.0
    #: Liveness: a crashed node (``up=False``) serves nothing; the cluster's
    #: quorum paths route around it and buffer its writes as hints.
    up: bool = True
    #: Service-time multiplier for a degraded ("slow") node; also divides
    #: its effective capacity.  1.0 = healthy.
    speed_factor: float = 1.0
    stats: NodeStats = field(default_factory=NodeStats)
    #: Optional request queue (duck-typed: any object with
    #: ``on_request(sim_time, service_seconds) -> wait_seconds`` and
    #: ``backlog_seconds(now)``).  When set — the serving tier installs a
    #: :class:`~repro.serving.queueing.NodeRequestQueue` — every charge also
    #: pays a first-come-first-served waiting time behind in-flight requests,
    #: so contention between concurrent clients shows up as queueing delay,
    #: and the cluster serves each read at the replica whose queue holds the
    #: least backlog.
    request_queue: Optional[object] = None
    #: Queue wait charged by the most recent RPC this node served; the
    #: cluster reads it back to attribute critical-replica queueing on the
    #: client's rpc spans (zero outside serving mode).
    last_queue_wait_seconds: float = 0.0

    @classmethod
    def create(
        cls,
        node_id: int,
        seed: int = 0,
        capacity_ops_per_second: float = 4000.0,
    ) -> "StorageNode":
        """Build a node with its own deterministic latency stream."""
        model = LatencyModel(seed=seed * 10_007 + node_id)
        return cls(
            node_id=node_id,
            latency_model=model,
            capacity_ops_per_second=capacity_ops_per_second,
        )

    @property
    def effective_capacity_ops_per_second(self) -> float:
        """Sustainable rate accounting for degradation (slow-node faults)."""
        return self.capacity_ops_per_second / self.speed_factor

    def set_offered_load(self, ops_per_second: float) -> None:
        """Update the node's utilisation given an offered operation rate."""
        if ops_per_second < 0:
            raise ValueError("offered load must be non-negative")
        self.utilization = ops_per_second / self.effective_capacity_ops_per_second

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """Crash the node: it serves nothing until :meth:`mark_up`."""
        self.up = False

    def mark_up(self) -> None:
        self.up = True

    def degrade(self, factor: float) -> None:
        """Slow the node down: every service time is multiplied by ``factor``."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self.speed_factor = factor

    def restore(self) -> None:
        """Clear a slow-node degradation."""
        self.speed_factor = 1.0

    def _charge(
        self,
        rpc_counter: str,
        keys_counter: str,
        num_keys: int,
        num_bytes: int,
        sim_time: float,
        filtered: Optional[int] = None,
        range_rows: bool = False,
    ) -> float:
        """Charge one RPC: sample, queue, count; return its latency (s).

        ``num_keys`` is what the latency model is charged for and what
        ``keys_counter`` grows by (and, for a range RPC, ``node.range_rows``).
        With a request queue installed the RPC also waits behind in-flight
        requests; ``node.queue_wait_seconds`` exists only then,
        ``node.keys_filtered`` only after a filtered range.
        """
        latency = self.latency_model.sample_seconds(
            num_keys, num_bytes, self.utilization, sim_time
        )
        latency *= self.speed_factor
        if self.request_queue is None:
            self.last_queue_wait_seconds = 0.0
            counts = [(rpc_counter, 1), (keys_counter, num_keys)]
        else:
            wait = self.request_queue.on_request(sim_time, latency)
            self.last_queue_wait_seconds = wait
            latency += wait
            counts = [
                ("node.queue_wait_seconds", wait),
                (rpc_counter, 1),
                (keys_counter, num_keys),
            ]
        if range_rows:
            counts.append(("node.range_rows", num_keys))
        if filtered is not None:
            counts.append(("node.keys_filtered", filtered))
        counts.append(("node.total_latency_seconds", latency))
        self.stats.metrics.add_many(counts)
        return latency

    def charge_read(self, num_keys: int, num_bytes: int, sim_time: float) -> float:
        """Charge one read RPC touching ``num_keys`` keys; return latency (s)."""
        return self._charge(
            "node.gets", "node.keys_read", num_keys, num_bytes, sim_time
        )

    def charge_range(self, num_keys: int, num_bytes: int, sim_time: float) -> float:
        """Charge one range RPC returning ``num_keys`` keys; return latency (s)."""
        return self._charge(
            "node.range_requests", "node.keys_read", num_keys, num_bytes,
            sim_time, range_rows=True,
        )

    def charge_filtered_range(
        self,
        examined_keys: int,
        shipped_keys: int,
        shipped_bytes: int,
        sim_time: float,
    ) -> float:
        """Charge one range RPC that filters server-side; return latency (s).

        The node pays for every key it *examines* (the scan work is done
        whether or not a key matches the pushed predicate) but only for the
        bytes it actually *ships* — that asymmetry is the whole point of
        predicate pushdown.
        """
        return self._charge(
            "node.range_requests", "node.keys_read", examined_keys,
            shipped_bytes, sim_time, filtered=examined_keys - shipped_keys,
            range_rows=True,
        )

    def charge_write(self, num_keys: int, num_bytes: int, sim_time: float) -> float:
        """Charge one write RPC writing ``num_keys`` keys; return latency (s)."""
        return self._charge(
            "node.puts", "node.keys_written", num_keys, num_bytes, sim_time
        )
