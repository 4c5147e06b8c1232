"""Failure injection: scheduled crash / recover / slow-node / network events.

The injector turns a declarative timeline of :class:`FaultSpec`\\ s into
state changes on a :class:`~repro.kvstore.cluster.KeyValueCluster`, driven
through the serving tier's discrete-event kernel (any object exposing
``schedule_at(time, action, name)`` — the injector deliberately duck-types
the kernel so this package does not import the serving tier).

Supported fault kinds:

* ``crash`` — the node stops serving; quorum paths skip it, writes it owns
  turn into hints, reads fall over to the surviving replicas.
* ``recover`` — the node returns; the cluster replays its hints and runs a
  targeted anti-entropy pass, and the injector records the resulting
  :class:`~repro.replication.manager.RepairReport`.
* ``slow`` — degraded capacity: the node's service times are multiplied by
  ``factor`` and its effective capacity divided by it (a straggling VM, the
  paper's Section 6.3 "cloud weather" made persistent).
* ``restore`` — undo ``slow``.
* ``partition`` — split the network into link ``groups`` (message-level:
  nodes stay up but cannot exchange messages across groups; the client
  lands in the implicit remainder group unless listed).
* ``heal`` — clear *all* network faults: partitions, flaky links, delays;
  every up node's hint buffer (writes hinted while the network hid it) is
  replayed, and the event records the replay's
  :class:`~repro.replication.manager.RepairReport`.
* ``flaky`` — links touching the node drop each message with seeded
  ``probability``; a dropped message surfaces as a timeout, not a no-op.
* ``delay`` — add ``delay_seconds`` of latency to every message touching
  the node.

Every applied fault is recorded as a :class:`FaultEvent` so benchmark
reports can print the failure timeline next to the SLO timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .manager import RepairReport

if TYPE_CHECKING:  # imported lazily: kvstore.cluster imports this package
    from ..kvstore.cluster import KeyValueCluster

_KINDS = (
    "crash",
    "recover",
    "slow",
    "restore",
    "partition",
    "heal",
    "flaky",
    "delay",
)

#: Kinds that target one node (and therefore need a valid ``node_id``).
_NODE_KINDS = ("crash", "recover", "slow", "restore", "flaky", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what happens to which node/link, and when.

    ``partition`` and ``heal`` are network-wide: their ``node_id`` defaults
    to ``-1`` and is ignored.  ``partition`` requires ``groups`` — a tuple
    of endpoint-id tuples (see
    :meth:`repro.kvstore.network.NetworkModel.partition`).
    """

    time: float
    kind: str
    node_id: int = -1
    #: Service-time multiplier for ``slow`` faults.
    factor: float = 4.0
    #: Per-message drop probability for ``flaky`` faults.
    probability: float = 0.0
    #: Added per-message latency for ``delay`` faults.
    delay_seconds: float = 0.0
    #: Link groups for ``partition`` faults.
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {_KINDS}")
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind == "slow" and self.factor <= 1.0:
            raise ValueError("slow-node factor must be > 1")
        if self.kind in _NODE_KINDS and self.node_id < 0:
            raise ValueError(f"{self.kind} fault requires a node_id")
        if self.kind == "flaky" and not (0.0 <= self.probability <= 1.0):
            raise ValueError("flaky probability must be in [0, 1]")
        if self.kind == "delay" and self.delay_seconds < 0.0:
            raise ValueError("delay_seconds must be non-negative")
        if self.kind == "partition":
            if not self.groups:
                raise ValueError("partition fault requires non-empty groups")
            # Normalize to hashable tuple-of-tuples so frozen specs compare.
            normalized = tuple(
                tuple(int(member) for member in group) for group in self.groups
            )
            if all(not group for group in normalized):
                raise ValueError("partition fault requires non-empty groups")
            object.__setattr__(self, "groups", normalized)

    @property
    def detail(self) -> str:
        """What the fault sets (``factor=4``, ``p=0.12``, ``delay=0.6s``,
        ``groups=2,3``), as fault events and incident reports print it."""
        if self.kind == "slow":
            return f"factor={self.factor:g}"
        if self.kind == "flaky":
            return f"p={self.probability:g}"
        if self.kind == "delay":
            return f"delay={self.delay_seconds:g}s"
        if self.kind == "partition":
            return "groups=" + "|".join(
                ",".join(str(member) for member in group) for group in self.groups
            )
        return ""

    @property
    def opens(self) -> bool:
        """Whether applying it starts a degraded window, rather than
        repairing one: ``flaky`` at p=0 and ``delay`` at zero re-arm the
        link."""
        if self.kind == "flaky":
            return self.probability > 0.0
        if self.kind == "delay":
            return self.delay_seconds > 0.0
        return self.kind in ("crash", "partition", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One fault as it was actually applied."""

    time: float
    kind: str
    node_id: int
    up_nodes_after: int
    #: The spec that was applied.
    spec: FaultSpec
    detail: str = ""
    repair: Optional[RepairReport] = None

    @property
    def opens(self) -> bool:
        """See :attr:`FaultSpec.opens`."""
        return self.spec.opens


def fault_event_payload(event: FaultEvent) -> Dict[str, object]:
    """JSON-friendly view of one applied fault event.

    Structured repair data (``hints_replayed``/``keys_copied``/
    ``bytes_copied``) is exported as first-class fields — reports should
    not have to parse the free-text ``detail`` string.
    """
    payload: Dict[str, object] = {
        "time": event.time,
        "kind": event.kind,
        "node_id": event.node_id,
        "up_nodes_after": event.up_nodes_after,
        "detail": event.detail,
    }
    if event.repair is not None:
        payload["hints_replayed"] = event.repair.hints_replayed
        payload["keys_copied"] = event.repair.keys_copied
        payload["bytes_copied"] = event.repair.bytes_copied
    return payload


def crash_recover_timeline(
    node_id: int, crash_at: float, recover_at: float
) -> List[FaultSpec]:
    """The classic failover scenario: one node crashes, later recovers."""
    if recover_at <= crash_at:
        raise ValueError("recover_at must be after crash_at")
    return [
        FaultSpec(time=crash_at, kind="crash", node_id=node_id),
        FaultSpec(time=recover_at, kind="recover", node_id=node_id),
    ]


def validate_timeline(specs: Sequence[FaultSpec]) -> None:
    """Reject malformed fault timelines before anything is scheduled.

    Two classes of mistakes are caught here (previously only the
    ``crash_recover_timeline`` helper checked ordering):

    * a ``recover`` scheduled at-or-before its matching ``crash`` — the
      i-th recover of a node must come strictly after the i-th crash;
    * two node-targeted specs for the same node at the same tick, whose
      apply order (and therefore the resulting cluster state) would be
      an accident of sort stability.
    """
    crashes: Dict[int, List[float]] = {}
    recovers: Dict[int, List[float]] = {}
    seen_ticks: Dict[Tuple[float, int], FaultSpec] = {}
    for spec in specs:
        if spec.kind in _NODE_KINDS:
            key = (spec.time, spec.node_id)
            if key in seen_ticks:
                raise ValueError(
                    f"duplicate faults for node {spec.node_id} at "
                    f"t={spec.time:g}: {seen_ticks[key].kind!r} and "
                    f"{spec.kind!r}"
                )
            seen_ticks[key] = spec
        if spec.kind == "crash":
            crashes.setdefault(spec.node_id, []).append(spec.time)
        elif spec.kind == "recover":
            recovers.setdefault(spec.node_id, []).append(spec.time)
    for node_id, recover_times in recovers.items():
        crash_times = sorted(crashes.get(node_id, []))
        for index, recover_at in enumerate(sorted(recover_times)):
            if index >= len(crash_times):
                # Recovering an already-up node is a (tested) no-op edge,
                # not a schedule error.
                continue
            if recover_at <= crash_times[index]:
                raise ValueError(
                    f"recover of node {node_id} at t={recover_at:g} is "
                    f"at-or-before its matching crash at "
                    f"t={crash_times[index]:g}"
                )


class FaultInjector:
    """Applies fault specs to a cluster, immediately or via an event kernel."""

    def __init__(self, cluster: "KeyValueCluster"):
        self.cluster = cluster
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, spec: FaultSpec, now: Optional[float] = None) -> FaultEvent:
        """Apply one fault right now (``now`` defaults to the spec's time).

        A fault aimed at a node that no longer exists (the autoscaler may
        have removed it between scheduling and firing) is recorded as a
        skipped event rather than aborting the simulation.
        """
        at = spec.time if now is None else now
        repair: Optional[RepairReport] = None
        detail = spec.detail
        if spec.kind in _NODE_KINDS and not (
            0 <= spec.node_id < len(self.cluster.nodes)
        ):
            event = FaultEvent(
                time=at,
                kind=spec.kind,
                node_id=spec.node_id,
                up_nodes_after=len(self.cluster.live_ids()),
                spec=spec,
                detail="skipped: node no longer provisioned",
            )
            self.events.append(event)
            return event
        if spec.kind == "crash":
            self.cluster.crash_node(spec.node_id)
        elif spec.kind == "recover":
            repair = self.cluster.recover_node(spec.node_id, sim_time=at)
            detail = (
                f"hints={repair.hints_replayed} copied={repair.keys_copied}"
            )
        elif spec.kind == "slow":
            self.cluster.node(spec.node_id).degrade(spec.factor)
        elif spec.kind == "restore":
            self.cluster.node(spec.node_id).restore()
        elif spec.kind == "partition":
            self.cluster.network.partition(spec.groups)
        elif spec.kind == "heal":
            dropped = self.cluster.network.dropped_messages
            self.cluster.network.heal()
            repair = self.cluster.replay_reachable_hints(at)
            detail = f"dropped={dropped}"
        elif spec.kind == "flaky":
            self.cluster.network.set_flaky(spec.node_id, spec.probability)
        else:  # delay
            self.cluster.network.set_delay(spec.node_id, spec.delay_seconds)
        event = FaultEvent(
            time=at,
            kind=spec.kind,
            node_id=spec.node_id,
            up_nodes_after=len(self.cluster.live_ids()),
            spec=spec,
            detail=detail,
            repair=repair,
        )
        self.events.append(event)
        return event

    def schedule(self, kernel, specs: Sequence[FaultSpec]) -> None:
        """Schedule every spec on an event kernel (``schedule_at`` duck type).

        The timeline is validated first (see :func:`validate_timeline`) so
        an impossible schedule fails loudly at construction, not as a
        confusing mid-run state.
        """
        validate_timeline(specs)
        for spec in sorted(specs, key=lambda s: s.time):
            def fire(sim, spec=spec):
                self.apply(spec, now=sim.now)

            kernel.schedule_at(
                spec.time, fire, name=f"fault-{spec.kind}-{spec.node_id}"
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_repair(self) -> RepairReport:
        """Aggregate repair work across every recovery and heal so far."""
        total = RepairReport()
        for event in self.events:
            if event.repair is not None:
                total = total.merged_with(event.repair)
        return total
