"""Consistent-hashing replica placement ring with virtual nodes.

Replica placement answers one question: *which storage nodes hold copies of
this key?*  The classic answer (Dynamo, Cassandra, and the SCADS lineage the
PIQL paper builds on) is a consistent-hashing ring: every physical node owns
many pseudo-random points ("virtual nodes") on a circular 64-bit token
space; a key hashes to a token and its ``n`` replicas are the first ``n``
*distinct* physical nodes encountered walking the ring clockwise from that
token.

Properties the rest of the replication tier relies on:

* **Pure function of topology** — the preference list depends only on the
  key bytes and the set of node ids currently in the ring (vnode positions
  are deterministic hashes of ``(seed, node_id, vnode_index)``), never on
  request order, so interleaved clients route identically run to run.
* **Minimal movement** — adding or removing one node only reassigns the
  keys whose ring walk crosses that node's vnodes, roughly ``1/nodes`` of
  the key space, which keeps anti-entropy rebalances proportional to the
  topology change rather than to the cluster size.
* **Distinct replicas** — a preference list never names the same physical
  node twice, even though adjacent vnodes often belong to the same node.
"""

from __future__ import annotations

import bisect
import hashlib
import zlib
from typing import Dict, List, Sequence, Tuple


def stable_hash64(data: bytes) -> int:
    """A fast, deterministic 64-bit hash (stable across processes/runs)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """A consistent-hashing ring mapping keys to ordered replica lists."""

    def __init__(self, vnodes_per_node: int = 128, seed: int = 0):
        if vnodes_per_node < 1:
            raise ValueError("vnodes_per_node must be >= 1")
        self.vnodes_per_node = vnodes_per_node
        self.seed = seed
        #: Monotonic counter bumped on every topology change; callers use it
        #: to invalidate cached preference lists.
        self.epoch = 0
        self._members: Dict[int, Tuple[int, ...]] = {}
        self._tokens: List[int] = []
        self._owners: List[int] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _vnode_tokens(self, node_id: int) -> Tuple[int, ...]:
        return tuple(
            stable_hash64(f"vnode:{self.seed}:{node_id}:{index}".encode())
            for index in range(self.vnodes_per_node)
        )

    def add_node(self, node_id: int) -> None:
        """Place a node's virtual nodes on the ring (idempotent)."""
        if node_id in self._members:
            return
        self._members[node_id] = self._vnode_tokens(node_id)
        self._rebuild()

    def remove_node(self, node_id: int) -> None:
        """Take a node's virtual nodes off the ring."""
        if self._members.pop(node_id, None) is not None:
            self._rebuild()

    def _rebuild(self) -> None:
        points = sorted(
            (token, node_id)
            for node_id, tokens in self._members.items()
            for token in tokens
        )
        self._tokens = [token for token, _ in points]
        self._owners = [node_id for _, node_id in points]
        self.epoch += 1

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._members

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def preference_list(self, token_bytes: bytes, n: int) -> List[int]:
        """First ``n`` distinct node ids clockwise from ``hash(token_bytes)``.

        Returns fewer than ``n`` ids only when the ring has fewer than ``n``
        members.
        """
        if not self._members:
            return []
        n = min(n, len(self._members))
        start = bisect.bisect_right(self._tokens, stable_hash64(token_bytes))
        total = len(self._owners)
        chosen: List[int] = []
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == n:
                    break
        return chosen

    def ownership_fractions(self) -> Dict[int, float]:
        """Approximate fraction of the token space each node owns (primary).

        Used by tests and diagnostics to check placement balance.
        """
        if not self._tokens:
            return {}
        space = float(2**64)
        fractions: Dict[int, float] = {node_id: 0.0 for node_id in self._members}
        for index, token in enumerate(self._tokens):
            previous = self._tokens[index - 1] if index else self._tokens[-1] - 2**64
            fractions[self._owners[index]] += (token - previous) / space
        return fractions


def placement_token(namespace: str, key: bytes) -> bytes:
    """The ring token for one key of one namespace.

    Including the namespace spreads identically-keyed records of different
    namespaces (e.g. a record and its index entry) over different replicas.
    """
    return namespace.encode("utf-8") + b"\x00" + key


def read_rotation(namespace: str, key: bytes, salt: int, replicas: int) -> int:
    """How far a key's preference list is rotated for reads.

    The rotation spreads *read* traffic over a key's replicas while staying
    a pure function of ``(key, salt)`` — no shared mutable state, so
    interleaved clients route identically run to run.
    """
    if replicas <= 1:
        return 0
    digest = zlib.crc32(placement_token(namespace, key))
    return zlib.crc32(key, digest ^ salt) % replicas


def moved_keys(
    before: "HashRing", after: "HashRing", tokens: Sequence[bytes], n: int
) -> int:
    """How many of ``tokens`` change any replica between two ring states."""
    return sum(
        1
        for token in tokens
        if before.preference_list(token, n) != after.preference_list(token, n)
    )
