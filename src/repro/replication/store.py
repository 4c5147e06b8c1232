"""Per-node versioned replica storage.

Each :class:`~repro.kvstore.node.StorageNode` now physically owns the data
it is a replica for — one ordered map per namespace, holding **versioned
records**.  A record is the stored value prefixed with an 8-byte write
sequence number and a flag byte::

    record = seq (8 bytes, big endian) | flags (1 byte) | payload

The sequence number is issued by the cluster coordinator at write time and
totally orders all writes, so every conflict-resolution site in the
replication tier — quorum reads, read repair, hinted-handoff replay, and
anti-entropy — applies the same rule: **newest sequence wins**.  Deletes
are tombstones (flag bit set, empty payload) rather than physical removals,
so a delete can propagate to replicas that missed it exactly like any other
write.

A replica takes a record in through one of two doors.
:meth:`ReplicaStore.apply_record` is the **checked** write: it reads what
the replica holds and stores the incoming record only if it is newer.  Read
repair, hint replay, anti-entropy and rebalance go through it, because what
they carry was sequenced some time ago and the replica may have moved on.
:meth:`ReplicaStore.write_fresh` is the **fresh** write: it stores without
reading.  That is licensed by one invariant — sequence numbers come from a
single monotone counter per cluster
(:meth:`~repro.replication.manager.ReplicationManager.next_seq`), so a
record the coordinator sequenced for *this* write is newer than every
record any replica holds; the counter is raised past whatever a reopened
engine already stores when its node is attached.  Only the coordinator's
own write sites (quorum writes and the latency-free loads) may use it, and
only for the record they have just sequenced.

These two and :meth:`ReplicaStore.discard` are the store's three doors:
the only ways the replication tier changes what a replica holds.  Each
tells the store's owner the key it changed (``changed``), and the
:class:`~repro.replication.manager.ReplicationManager` drops the memoized
range answers of that key's leading value.  Every change to replica content
goes through a door or clears that memo
(``ReplicationManager.clear_range_memo``): an engine's bulk load, a durable
engine's crash and recovery, and a node attached or forgotten clear it, and
a new path past the doors must too, or range reads go stale.

The *physical* side — how those per-namespace ordered maps are actually
held — is delegated to a pluggable
:class:`~repro.kvstore.engine.base.StorageEngine` (the in-memory dict
engine by default, or the persistent LSM engine).  Everything logical
(record encoding, newest-wins conflict resolution) lives here and is
engine-independent, which is what keeps query results and operation counts
bit-identical across engines.  Per-node range scans stay byte-ordered
either way, which the scatter-gather range path merges across replicas.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from ..kvstore.engine import DictEngine
from ..kvstore.engine.base import StorageEngine

_HEADER = struct.Struct(">QB")
_TOMBSTONE = 0x01

#: Where a record's payload starts: a live record's value is
#: ``record[PAYLOAD_AT:]``.
PAYLOAD_AT = _HEADER.size

#: Sequence number reported for a key a replica has never heard of.
MISSING_SEQ = -1


def encode_record(seq: int, value: Optional[bytes]) -> bytes:
    """Encode one versioned record; ``value=None`` encodes a tombstone."""
    if seq < 0:
        raise ValueError("sequence numbers must be non-negative")
    flags = _TOMBSTONE if value is None else 0
    return _HEADER.pack(seq, flags) + (value or b"")


def decode_record(record: bytes) -> Tuple[int, Optional[bytes]]:
    """Decode a versioned record to ``(seq, value)``; tombstones give ``None``."""
    seq, flags = _HEADER.unpack_from(record)
    return seq, (None if flags & _TOMBSTONE else record[_HEADER.size:])


def is_tombstone(record: bytes) -> bool:
    """Whether an encoded record is a tombstone."""
    return record[PAYLOAD_AT - 1] & _TOMBSTONE != 0


def record_seq(record: Optional[bytes]) -> int:
    """Sequence number of an encoded record (``MISSING_SEQ`` for ``None``)."""
    if record is None:
        return MISSING_SEQ
    return _HEADER.unpack_from(record)[0]


class ReplicaStore:
    """One storage node's replica of every namespace it participates in."""

    def __init__(
        self,
        engine: Optional[StorageEngine],
        changed: Callable[[str, bytes], None],
    ) -> None:
        """``engine`` holds the replica (``None``: the in-memory dict
        engine); ``changed(namespace, key)`` is told of every key the doors
        change (module docstring)."""
        self.engine: StorageEngine = engine if engine is not None else DictEngine()
        self._changed = changed

    # ------------------------------------------------------------------
    # Namespaces
    # ------------------------------------------------------------------
    def map(self, namespace: str):
        """The (created-on-demand) ordered map backing one namespace."""
        return self.engine.map(namespace)

    def namespaces(self) -> List[str]:
        return self.engine.namespaces()

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def get_record(self, namespace: str, key: bytes) -> Optional[bytes]:
        existing = self.engine.peek(namespace)
        return existing.get(key) if existing is not None else None

    def seq_of(self, namespace: str, key: bytes) -> int:
        return record_seq(self.get_record(namespace, key))

    def apply_record(self, namespace: str, key: bytes, record: bytes) -> bool:
        """Store ``record`` unless a newer version is already present.

        Newest-wins idempotence is what lets read repair, hint replay, and
        anti-entropy all blindly push records at replicas.  Returns whether
        the record was applied.
        """
        if record_seq(record) <= self.seq_of(namespace, key):
            return False
        self.map(namespace).put(key, record)
        self._changed(namespace, key)
        return True

    def write_fresh(self, namespace: str, key: bytes, record: bytes) -> None:
        """Store a record the coordinator has just sequenced, unread.

        Newer than anything stored by construction (module docstring), so
        the engine read :meth:`apply_record` pays is skipped.  Never hand it
        a record that has been anywhere else first — a hint, a repair, a
        copy from another replica.
        """
        self.engine.map(namespace).put(key, record)
        self._changed(namespace, key)

    def highest_seq(self) -> int:
        """Highest sequence number stored in any namespace (``MISSING_SEQ``
        when empty): what a reopened engine tells the write sequence."""
        return max(
            (
                record_seq(record)
                for namespace in self.engine.namespaces()
                for _key, record in self.iter_records(namespace)
            ),
            default=MISSING_SEQ,
        )

    def discard(self, namespace: str, key: bytes) -> bool:
        """Physically remove a key (the node is no longer a replica for it)."""
        existing = self.engine.peek(namespace)
        if existing is None or not existing.delete(key):
            return False
        self._changed(namespace, key)
        return True

    def range_records(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[Tuple[bytes, bytes]]:
        """This replica's encoded records with ``start <= key < end``.

        Tombstones are *included* — the merge layer needs them to suppress
        deleted keys that another replica still carries live.
        """
        existing = self.engine.peek(namespace)
        if existing is None:
            return []
        return existing.range(start, end, limit, ascending)

    def iter_range_records(
        self,
        namespace: str,
        start: Optional[bytes],
        end: Optional[bytes],
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Lazily iterate this replica's records in a key range, ascending
        (tombstones included), so limit-honouring merges can stop early."""
        existing = self.engine.peek(namespace)
        if existing is None:
            return iter(())
        return existing.iter_range(start, end)

    def iter_records(self, namespace: str) -> Iterator[Tuple[bytes, bytes]]:
        existing = self.engine.peek(namespace)
        if existing is None:
            return iter(())
        return existing.iter_items()
