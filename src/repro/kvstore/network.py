"""Deterministic message-level network fault plane.

Every RPC in the simulated cluster — client→node quorum traffic and
node→node replication traffic (hinted handoff replay, read repair,
anti-entropy) — consults one :class:`NetworkModel` before it "delivers".
The model knows three kinds of trouble:

* **Partitions** — endpoints are assigned to link groups; messages only
  cross between endpoints in the same group.  Endpoints not named by any
  group (including the client) form an implicit remainder group, so a
  minority partition is expressed by listing just the minority.
* **Flaky links** — a per-endpoint drop probability.  Draws are derived
  from ``crc32(seed, src, dst, counter)``, so a given seed produces the
  same drop sequence on every run: chaos soaks replay exactly.
* **Link delay** — per-endpoint added latency, charged on top of the
  node's own service time.

A dropped message is *not* a silent no-op: the cluster converts it into
an :class:`~repro.errors.RpcTimeoutError` (reads) or a hinted write
(writes), because on a real network a lost request and a lost reply are
both indistinguishable from an arbitrarily slow peer.

The model is deliberately inert by default: with no partitions, flaky
links, or delays configured, :attr:`active` is ``False`` and every
check short-circuits without consuming randomness — a healthy run is
byte-identical to a run without the fault plane.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, Iterable, List, Sequence

#: Endpoint id used for the client side of client→node RPCs.  Storage
#: nodes use their non-negative node ids.
CLIENT = -1


class NetworkModel:
    """Deterministic partition / drop / delay model over cluster links."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        # Map endpoint -> group index.  Endpoints absent from the map are
        # in the implicit remainder group (index None sentinel handled in
        # reachable()).
        self._groups: Dict[int, int] = {}
        self._partitioned = False
        # Per-endpoint drop probability / added delay.
        self._flaky: Dict[int, float] = {}
        self._delays: Dict[int, float] = {}
        #: True when any fault state is configured: the fast-path guard every
        #: request reads, kept current by each method that changes the state.
        self.active = False
        # Monotonic draw counter: one increment per delivers() draw.
        self._draws = 0
        self.dropped_messages = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _refresh_active(self) -> None:
        self.active = bool(self._partitioned or self._flaky or self._delays)

    def partition(self, groups: Sequence[Iterable[int]]) -> None:
        """Split the network into link groups.

        ``groups`` is a sequence of endpoint-id collections.  Messages
        travel only within a group; endpoints not listed anywhere
        (including :data:`CLIENT`) form one implicit remainder group.
        """
        normalized: List[FrozenSet[int]] = [
            frozenset(int(member) for member in group) for group in groups
        ]
        if not normalized or all(not group for group in normalized):
            raise ValueError("partition requires at least one non-empty group")
        mapping: Dict[int, int] = {}
        for index, group in enumerate(normalized):
            for member in group:
                if member in mapping:
                    raise ValueError(
                        f"endpoint {member} appears in multiple partition groups"
                    )
                mapping[member] = index
        self._groups = mapping
        self._partitioned = True
        self.active = True

    def heal(self) -> None:
        """Clear every configured fault: partitions, flakiness, delay."""
        self._groups = {}
        self._partitioned = False
        self._flaky.clear()
        self._delays.clear()
        self.active = False

    def set_flaky(self, node_id: int, probability: float) -> None:
        """Set the drop probability for links touching ``node_id``."""
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"flaky probability must be in [0, 1], got {probability}"
            )
        if probability == 0.0:
            self._flaky.pop(int(node_id), None)
        else:
            self._flaky[int(node_id)] = probability
        self._refresh_active()

    def set_delay(self, node_id: int, delay_seconds: float) -> None:
        """Add fixed latency to every message touching ``node_id``."""
        delay_seconds = float(delay_seconds)
        if delay_seconds < 0.0:
            raise ValueError(
                f"link delay must be non-negative, got {delay_seconds}"
            )
        if delay_seconds == 0.0:
            self._delays.pop(int(node_id), None)
        else:
            self._delays[int(node_id)] = delay_seconds
        self._refresh_active()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable(self, src: int, dst: int) -> bool:
        """Deterministic reachability: partitions only.

        Flakiness is *not* consulted here — a flaky link is reachable but
        may drop individual messages (see :meth:`delivers`).
        """
        if not self.active:
            return True
        if src == dst:
            return True
        if self._partitioned:
            if self._groups.get(src) != self._groups.get(dst):
                return False
        return True

    def delivers(self, src: int, dst: int) -> bool:
        """Does one message on src→dst arrive?  Consumes one seeded draw.

        Returns False for unreachable links (no draw consumed) and with
        the configured probability on flaky links.  The draw sequence is
        a pure function of (seed, src, dst, counter), so identical fault
        schedules replay identically.
        """
        if not self.active:
            return True
        if not self.reachable(src, dst):
            self.dropped_messages += 1
            return False
        if not self._flaky:
            return True
        probability = max(
            self._flaky.get(src, 0.0), self._flaky.get(dst, 0.0)
        )
        if probability <= 0.0:
            return True
        draw = self._draw(src, dst)
        if draw < probability:
            self.dropped_messages += 1
            return False
        return True

    def delay_seconds(self, src: int, dst: int) -> float:
        """Added latency on src→dst (endpoint delays are additive)."""
        if not self._delays:
            return 0.0
        return self._delays.get(src, 0.0) + self._delays.get(dst, 0.0)

    def _draw(self, src: int, dst: int) -> float:
        self._draws += 1
        payload = f"{self.seed}:{src}:{dst}:{self._draws}".encode()
        return (zlib.crc32(payload) & 0xFFFFFFFF) / 4294967296.0

    def describe(self) -> Dict[str, object]:
        """Structured snapshot for telemetry / debugging."""
        return {
            "partitioned": self._partitioned,
            "groups": sorted(
                (member, index) for member, index in self._groups.items()
            ),
            "flaky": dict(sorted(self._flaky.items())),
            "delays": dict(sorted(self._delays.items())),
            "dropped_messages": self.dropped_messages,
        }
