"""Autoscaler: grow or shrink the storage tier to protect the SLO.

Admission control protects latency by refusing work; the autoscaler
protects it by buying capacity, the provisioning-for-load methodology of
Lang et al.'s energy-efficient cluster design work.  The policy is the
classic utilisation-band controller with hysteresis and a cooldown:

* when mean measured node utilisation stays above ``high_utilization``, add
  a storage node (the new node joins the placement ring and anti-entropy
  re-replicates the key ranges it now owns onto it);
* when it falls below ``low_utilization`` and the cluster is above its
  floor — never below the replication factor, in provisioned *or* up
  nodes — remove the most recently added node, re-replicating its records
  onto the survivors first;
* after any action, wait ``cooldown_seconds`` before acting again so the
  measured rate window can catch up with the new topology.

Every action is logged with its trigger so benchmark reports can show the
violation → scale-out → recovery timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..kvstore.cluster import KeyValueCluster
from .queueing import NodeRequestQueue, install_queue, refresh_utilization

#: The cluster never grows past this many storage nodes.
MAX_NODES = 64


@dataclass(frozen=True)
class AutoscaleConfig:
    """Utilisation band and pacing of the scaling policy."""

    high_utilization: float = 0.75
    low_utilization: float = 0.30
    cooldown_seconds: float = 10.0
    #: No scale-*down* before this much simulated time: the smoothed busy
    #: signal starts at zero, and shedding capacity on a cold signal is the
    #: one mistake this controller must never make.  Scale-up is always
    #: allowed.
    warmup_seconds: float = 5.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.low_utilization < self.high_utilization):
            raise ValueError("need 0 <= low_utilization < high_utilization")


@dataclass(frozen=True)
class ScalingAction:
    """One executed scaling decision (for reports and tests)."""

    time: float
    action: str  # "add" or "remove"
    utilization: float
    nodes_after: int


class Autoscaler:
    """Adds/removes cluster nodes based on measured utilisation."""

    def __init__(
        self, cluster: KeyValueCluster, config: Optional[AutoscaleConfig] = None
    ):
        self.cluster = cluster
        self.config = config or AutoscaleConfig()
        self.actions: List[ScalingAction] = []
        self._last_action_time: Optional[float] = None

    def evaluate(self, now: float) -> Optional[ScalingAction]:
        """One control tick: maybe scale; returns the action taken, if any."""
        if (
            self._last_action_time is not None
            and now - self._last_action_time < self.config.cooldown_seconds
        ):
            return None
        utilization = refresh_utilization(self.cluster, now)
        action: Optional[str] = None
        if (
            utilization > self.config.high_utilization
            and len(self.cluster.nodes) < MAX_NODES
        ):
            node = self.cluster.add_node()
            # Match the queueing discipline of the existing nodes so the new
            # node participates in rate measurement immediately.
            template = next(
                (
                    n.request_queue
                    for n in self.cluster.nodes
                    if isinstance(n.request_queue, NodeRequestQueue)
                ),
                None,
            )
            if template is not None:
                install_queue(node, template.smoothing_seconds, now=now)
            action = "add"
        elif (
            utilization < self.config.low_utilization
            and len(self.cluster.nodes) > self.cluster.config.replication
            and now >= self.config.warmup_seconds
            # Never shed capacity that the replication invariant needs:
            # with a node crashed, removing another could leave fewer up
            # replicas than the replication factor.
            and self.cluster.can_remove_node()
        ):
            self.cluster.remove_node()
            action = "remove"
        if action is None:
            return None
        self._last_action_time = now
        record = ScalingAction(
            time=now,
            action=action,
            utilization=utilization,
            nodes_after=len(self.cluster.nodes),
        )
        self.actions.append(record)
        return record
