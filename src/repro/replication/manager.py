"""Replication manager: placement, hinted handoff, and anti-entropy repair.

The manager is the bookkeeping half of the replication tier.  It owns

* the :class:`~repro.replication.ring.HashRing` that places every key on
  ``replication`` distinct nodes,
* one :class:`~repro.replication.store.ReplicaStore` per attached node (the
  node's physical copy of its share of every namespace),
* the cluster-wide **write sequence** that versions records,
* the **hint buffers** — writes acknowledged while a replica was down, kept
  by the coordinator and replayed when the replica recovers, and
* **anti-entropy repair**: after any topology change (node added, removed,
  or recovered) it walks the merged key set, re-replicates every record to
  its current preference list, and drops records from nodes that no longer
  own them.

It deliberately knows nothing about liveness or latency — the
:class:`~repro.kvstore.cluster.KeyValueCluster` decides which node ids are
up and charges the simulated cost of the work the manager reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kvstore.engine.base import StorageEngine
from ..kvstore.memory import merge_slices
from .ring import HashRing, leading_length, placement_token, read_rotation
from .store import (
    MISSING_SEQ,
    PAYLOAD_AT,
    ReplicaStore,
    is_tombstone,
    record_seq,
)

#: Keys resolved per pass by the chunked offline scans (anti-entropy and
#: :meth:`ReplicationManager.iter_live`).  Bounds resident memory: a pass
#: materialises at most this many resolved keys before its replica
#: iterators are abandoned and mutations (or the consumer) run.
SCAN_CHUNK_KEYS = 1024


def _key_after(key: bytes) -> bytes:
    """The smallest byte string strictly greater than ``key``."""
    return key + b"\x00"


def _copy_key(copy: Tuple[int, Tuple[bytes, bytes]]) -> bytes:
    """The key of one ``(node id, (key, record))`` copy (:meth:`ReplicationManager.copies`)."""
    return copy[1][0]


def _newest_payloads(
    slices: List[List[Tuple[bytes, bytes]]]
) -> Dict[bytes, Optional[bytes]]:
    """Each key's newest payload across replica slices, ``None`` for a
    tombstone: the highest sequence wins."""
    first, *others = slices or [[]]
    newest = dict(first)
    for chunk in others:
        if chunk == first:
            continue  # the first replica's writes again: nothing newer
        for key, record in chunk:
            held = newest.get(key)
            # Equal bytes are the same write: nothing to unpack.
            if held is None or (
                held != record and record_seq(record) > record_seq(held)
            ):
                newest[key] = record
    return {
        key: None if is_tombstone(record) else record[PAYLOAD_AT:]
        for key, record in newest.items()
    }


#: One placement-cache entry: ``(preference list, read order, cut)``, the
#: cut being the length of the key's first encoded value
#: (:func:`~repro.replication.ring.leading_length`).  Read order and cut are
#: ``None`` until the key's first read.
_Placement = Tuple[List[int], Optional[List[int]], Optional[int]]


#: Entries one namespace's range memo holds at most: the next one and the
#: namespace's memo starts empty again (a read-mostly workload over ever new
#: ranges), so the memo stays bounded however long a run lasts.
RANGE_MEMO_MAX = 4096


#: Newest live ``(key, value)`` pairs of a range in scan order, and the
#: total bytes of their values (:meth:`ReplicationManager.merged_range`).
MergedRange = Tuple[List[Tuple[bytes, bytes]], int]

#: One memo entry: the winning ``(key, payload)`` pairs and the payloads'
#: total bytes.  A tuple of pairs, copied into a list per hit: keys and
#: payloads as two flat tuples zipped per hit held ~0.6 MB less on
#: ``scadr_closed`` but served ~3% fewer interactions per core-second
#: (2-core x86-64, CPython 3.11).
_MemoEntry = Tuple[Tuple[Tuple[bytes, bytes], ...], int]


def choose_replicas(
    preference: List[int],
    serving: AbstractSet[int],
    suspects: Optional[AbstractSet[int]] = None,
    quorum: int = 0,
) -> Tuple[List[int], Sequence[int], Sequence[int]]:
    """Which replicas of one key a request uses: ``(use, unavailable, demoted)``.

    ``preference`` is the key's preference list in the order the request
    tries it (:meth:`ReplicationManager.read_preference` for reads, the
    plain :meth:`~ReplicationManager.preference_list` otherwise); ``use``
    keeps that order and may be ``preference`` itself — do not mutate it.
    ``unavailable`` are the replicas outside ``serving`` (down, or
    unreachable from whoever asks).  ``suspects`` (breaker-open nodes at
    the calling client) are ``demoted`` out of ``use`` only while
    ``quorum`` replicas remain without them: a suspicion never costs a
    request its quorum.  Fewer than ``quorum`` in ``use`` means the quorum
    cannot be met; the caller raises.
    """
    if serving.issuperset(preference):
        use, unavailable = preference, ()
    else:
        use = [node_id for node_id in preference if node_id in serving]
        unavailable = tuple(
            node_id for node_id in preference if node_id not in serving
        )
    if suspects and len(use) > quorum:
        healthy = [node_id for node_id in use if node_id not in suspects]
        if len(healthy) >= quorum:
            return healthy, unavailable, [n for n in use if n in suspects]
    return use, unavailable, ()


@dataclass
class RepairReport:
    """What one anti-entropy / recovery pass actually moved.

    ``bytes_copied`` is what benchmark reports charge as repair bandwidth;
    ``per_node_copies`` lets the cluster charge each destination node's
    latency model for the records it received.
    """

    keys_examined: int = 0
    keys_copied: int = 0
    keys_removed: int = 0
    hints_replayed: int = 0
    bytes_copied: int = 0
    per_node_copies: Dict[int, int] = field(default_factory=dict)
    per_node_bytes: Dict[int, int] = field(default_factory=dict)

    def _count_copy(self, node_id: int, nbytes: int) -> None:
        self.keys_copied += 1
        self.bytes_copied += nbytes
        self.per_node_copies[node_id] = self.per_node_copies.get(node_id, 0) + 1
        self.per_node_bytes[node_id] = self.per_node_bytes.get(node_id, 0) + nbytes

    def merged_with(self, other: "RepairReport") -> "RepairReport":
        merged = RepairReport(
            keys_examined=self.keys_examined + other.keys_examined,
            keys_copied=self.keys_copied + other.keys_copied,
            keys_removed=self.keys_removed + other.keys_removed,
            hints_replayed=self.hints_replayed + other.hints_replayed,
            bytes_copied=self.bytes_copied + other.bytes_copied,
            per_node_copies=dict(self.per_node_copies),
            per_node_bytes=dict(self.per_node_bytes),
        )
        for node_id, count in other.per_node_copies.items():
            merged.per_node_copies[node_id] = (
                merged.per_node_copies.get(node_id, 0) + count
            )
        for node_id, nbytes in other.per_node_bytes.items():
            merged.per_node_bytes[node_id] = (
                merged.per_node_bytes.get(node_id, 0) + nbytes
            )
        return merged

    def summary(self) -> Dict[str, int]:
        return {
            "keys_examined": self.keys_examined,
            "keys_copied": self.keys_copied,
            "keys_removed": self.keys_removed,
            "hints_replayed": self.hints_replayed,
            "bytes_copied": self.bytes_copied,
        }


class ReplicationManager:
    """Placement, per-node stores, hints, and repair for one cluster."""

    def __init__(
        self, replication: int, vnodes_per_node: int = 128, seed: int = 0
    ):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self.ring = HashRing(vnodes_per_node=vnodes_per_node, seed=seed)
        self.stores: Dict[int, ReplicaStore] = {}
        self._hints: Dict[int, Dict[Tuple[str, bytes], bytes]] = {}
        self._seq = 0
        self._read_salt = seed & 0xFFFFFFFF
        #: Placement cache: namespace -> key -> ``(preference list, read
        #: order, cut)`` (:data:`_Placement`).  Keys with the same
        #: placement, rotation offset and cut share one entry
        #: (``_placements``), and the namespace string is held once, so a
        #: cached key costs one dict slot and a lookup builds no tuple.
        #: Both are dropped when the ring's epoch moves.
        self._preference_cache: Dict[str, Dict[bytes, _Placement]] = {}
        self._placements: Dict[Tuple, _Placement] = {}
        self._cache_epoch = -1
        #: Bounded-range answers (:meth:`merged_range`): namespace ->
        #: leading value -> ``(start, end, limit, ascending, node ids)`` ->
        #: entry, and the entries each namespace holds.
        self._range_memos: Dict[str, Dict[bytes, Dict[Tuple, _MemoEntry]]] = {}
        self._memo_sizes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach_node(
        self, node_id: int, engine: Optional[StorageEngine] = None
    ) -> ReplicaStore:
        """Register a node: replica store + ring membership.

        ``engine`` selects the node's physical storage (default: the
        in-memory dict engine).  A durable engine opened over an existing
        directory comes up holding records: the write sequence is raised
        past the highest of them, so the next write is newer than anything
        stored (what :meth:`ReplicaStore.write_fresh` relies on).
        """
        store = ReplicaStore(engine, self._forget_lead)
        self._seq = max(self._seq, store.highest_seq())
        self.stores[node_id] = store
        self._hints.setdefault(node_id, {})
        self.ring.add_node(node_id)
        self.clear_range_memo()
        return store

    def forget_node(self, node_id: int) -> None:
        """Drop a node's store, hints, and ring membership (idempotent).

        Callers that still need the leaving node's data as a rebalance
        source must run :meth:`rebalance` *before* forgetting it.
        """
        self.ring.remove_node(node_id)
        self.stores.pop(node_id, None)
        self._hints.pop(node_id, None)
        self.clear_range_memo()

    # ------------------------------------------------------------------
    # Versioning / placement
    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _placement(self, namespace: str, key: bytes) -> _Placement:
        """``key``'s placement-cache entry, placing the key on a miss.

        A new entry holds the preference list only; :meth:`read_preference`
        fills in read order and cut on the key's first read (loading places
        every key and reads none).  The whole cache is dropped when the
        ring's topology epoch moves (nodes added/removed).
        """
        if self._cache_epoch != self.ring.epoch:
            self._preference_cache = {}
            self._placements = {}
            self._cache_epoch = self.ring.epoch
        placed = self._preference_cache.get(namespace)
        if placed is None:
            placed = self._preference_cache[namespace] = {}
        cached = placed.get(key)
        if cached is None:
            prefs = self.ring.preference_list(
                placement_token(namespace, key), self.replication
            )
            cached = placed[key] = self._placements.setdefault(
                (tuple(prefs), None, None), (prefs, None, None)
            )
        return cached

    def preference_list(self, namespace: str, key: bytes) -> List[int]:
        """The ``replication`` node ids that own ``key``, primary first.

        Cached per key (:meth:`_placement`).  The list is shared between
        keys with the same placement: do not mutate it.
        """
        return self._placement(namespace, key)[0]

    def read_preference(self, namespace: str, key: bytes) -> List[int]:
        """The preference list in the order reads try its replicas.

        :func:`read_rotation` of the preference list: the order in which a
        read that finds equal queue backlogs picks its replicas
        (``kvstore.cluster._Backlogs.least``).  The key's first read
        computes it together with the key's cut and replaces the key's
        entry with one that holds all three; later reads are served from
        it.  Shared between keys like :meth:`preference_list`: do not
        mutate it.
        """
        entry = self._placement(namespace, key)
        if entry[1] is None:
            prefs = entry[0]
            offset = read_rotation(namespace, key, self._read_salt, len(prefs))
            cut = leading_length(key)
            entry = self._placements.setdefault(
                (tuple(prefs), offset, cut),
                (prefs, prefs[offset:] + prefs[:offset] if offset else prefs, cut),
            )
            self._preference_cache[namespace][key] = entry
        return entry[1]

    def range_group(
        self, namespace: str, start: bytes, end: bytes
    ) -> Optional[Tuple[bytes, List[int]]]:
        """``(lead, read preference)`` of the one replica group that holds
        every key of ``[start, end)``, or ``None`` when the range may span
        groups.

        With ``lead`` the first encoded value of ``start`` (``start[:cut]``
        from ``start``'s placement entry), every key from ``start`` up to
        an ``end`` in ``[lead, lead + b"\\xff"]`` extends ``lead`` — and,
        since a key's next byte is a type tag, never as
        ``lead + b"\\xff..."``, which would read ``lead``'s terminator as
        an escaped NUL and so a longer first value (``b"\\x00"`` lies
        between ``b""`` and ``b"\\x00\\xff"``).  So every such key has
        ``lead``'s placement (:func:`~repro.replication.ring.
        placement_token`) and ``lead`` as its own first value, which is
        what :meth:`merged_range` keys its memo by.  Only ``start`` is
        parsed, on its first read: an upper bound such as
        ``prefix_upper_bound(p)`` is not a key.  The list is ``start``'s
        :meth:`read_preference`, shared: do not mutate it.
        """
        entry = self._placement(namespace, start)
        if entry[2] is None:
            self.read_preference(namespace, start)
            entry = self._placement(namespace, start)
        cut = entry[2]
        lead = start[:cut]
        return (lead, entry[1]) if cut and lead <= end <= lead + b"\xff" else None

    # ------------------------------------------------------------------
    # Hinted handoff
    # ------------------------------------------------------------------
    def add_hint(self, node_id: int, namespace: str, key: bytes, record: bytes) -> None:
        """Buffer a write a down replica missed (newest hint per key wins)."""
        hints = self._hints.setdefault(node_id, {})
        existing = hints.get((namespace, key))
        if existing is None or record_seq(record) > record_seq(existing):
            hints[(namespace, key)] = record

    def hint_count(self, node_id: int) -> int:
        return len(self._hints.get(node_id, {}))

    def take_hints(self, node_id: int) -> Dict[Tuple[str, bytes], bytes]:
        """Drain (and return) the hint buffer destined for a node."""
        hints = self._hints.get(node_id, {})
        self._hints[node_id] = {}
        return hints

    # ------------------------------------------------------------------
    # Merged (logical) views
    # ------------------------------------------------------------------
    def newest_record(
        self, namespace: str, key: bytes, node_ids: Iterable[int]
    ) -> Tuple[int, Optional[bytes]]:
        """Newest ``(seq, record)`` for a key across the given replicas."""
        best_seq = MISSING_SEQ
        best: Optional[bytes] = None
        for node_id in node_ids:
            record = self.stores[node_id].get_record(namespace, key)
            seq = record_seq(record)
            if seq > best_seq:
                best_seq, best = seq, record
        return best_seq, best

    def merged_range(
        self,
        namespace: str,
        node_ids: Sequence[int],
        lead: Optional[bytes],
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> MergedRange:
        """Newest live ``(key, value)`` pairs in a range, and their values'
        total bytes.

        Each node of ``node_ids`` contributes its replica's slice to the one
        chunked range merge, :func:`~repro.kvstore.memory.merge_slices`
        (:meth:`_merge`); per key the newest record wins and tombstones
        suppress the key entirely.

        A range with a ``limit`` inside one leading value ``lead`` (what
        :meth:`range_group` hands back for it; ``None`` for any other range)
        is memoized: the finished answer — winning keys, their payloads and
        the payload byte total — is kept under ``namespace``, ``lead`` and
        ``(start, end, limit, ascending, node ids)``, and answers again
        until some replica changes a key with that leading value.  Every
        change of replica content either goes through a
        :class:`~repro.replication.store.ReplicaStore` door, which drops the
        lead's entries (:meth:`_forget_lead`), or clears the memo
        (:meth:`clear_range_memo`).  Every call returns a fresh list, so a
        caller may mutate it.  The memo saves host work only: whoever
        charges the simulation (``KeyValueCluster._range_over``) names the
        serving node and charges, draws and delivers per request, hit or
        not.  Any other range merges every time.
        """
        if lead is None or limit is None:
            pairs = self._merge(namespace, node_ids, start, end, limit, ascending)
            return pairs, sum([len(value) for _, value in pairs])
        leads = self._range_memos.get(namespace)
        if leads is None:
            leads = self._range_memos[namespace] = {}
        entries = leads.get(lead)
        entry_key = (start, end, limit, ascending, tuple(node_ids))
        if entries is not None:
            entry = entries.get(entry_key)
            if entry is not None:
                return list(entry[0]), entry[1]
        pairs = self._merge(namespace, node_ids, start, end, limit, ascending)
        nbytes = sum([len(value) for _, value in pairs])
        held = self._memo_sizes.get(namespace, 0)
        if held >= RANGE_MEMO_MAX:
            leads.clear()
            held = 0
            entries = None
        if entries is None:
            entries = leads[lead] = {}
        entries[entry_key] = (tuple(pairs), nbytes)
        self._memo_sizes[namespace] = held + 1
        return pairs, nbytes

    def _forget_lead(self, namespace: str, key: bytes) -> None:
        """Drop the memoized ranges of ``key``'s leading value: a replica
        changed ``key`` (every :class:`ReplicaStore` door calls this).

        A key in a memoized range extends the range's lead
        (:meth:`range_group`), so its own first value is that lead; a key
        with no first value lies in no memoized range.
        """
        leads = self._range_memos.get(namespace)
        if leads:
            dropped = leads.pop(key[:leading_length(key)], None)
            if dropped:
                self._memo_sizes[namespace] -= len(dropped)

    def clear_range_memo(self) -> None:
        """Forget every memoized range answer.

        For the changes of replica content that no :class:`ReplicaStore`
        door sees: a node attached or forgotten, an engine's bulk load
        (``KeyValueCluster.bulk_load_many``) and a durable engine's crash
        and recovery (``KeyValueCluster.crash_node`` / ``recover_node``).
        """
        self._range_memos = {}
        self._memo_sizes = {}

    def _merge(
        self,
        namespace: str,
        node_ids: Sequence[int],
        start: Optional[bytes],
        end: Optional[bytes],
        limit: Optional[int],
        ascending: bool,
    ) -> List[Tuple[bytes, bytes]]:
        """The newest live keys across the replicas of ``node_ids``, in scan
        order, each with its payload: :func:`~repro.kvstore.memory.
        merge_slices` over their :meth:`ReplicaStore.range_records`.  A memo
        hit returns before this builds its store list and closure."""
        stores = [self.stores[node_id] for node_id in node_ids]

        def read(
            start: Optional[bytes], end: Optional[bytes], remaining: Optional[int]
        ) -> List[List[Tuple[bytes, bytes]]]:
            return [
                store.range_records(namespace, start, end, remaining, ascending)
                for store in stores
            ]

        return merge_slices(read, _newest_payloads, start, end, limit, ascending)

    def live_key_count(self, namespace: str, node_ids: Sequence[int]) -> int:
        """Number of distinct live (non-tombstone) keys across replicas."""
        return sum(1 for _ in self.iter_live(namespace, node_ids))

    def iter_live(
        self, namespace: str, node_ids: Sequence[int]
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate the logical content of a namespace in key order.

        Resolved in chunks of :data:`SCAN_CHUNK_KEYS`: each chunk is merged with
        fresh replica iterators starting after the previous chunk's last
        key, then yielded with no iterator left open.  Resident memory is
        bounded by the chunk size rather than the namespace size, and —
        since no replica iterator is live while the consumer runs — the
        consumer may write back into the cluster between chunks (view
        backfill does) without invalidating the scan, even on engines whose
        flushes restructure storage.
        """
        start: Optional[bytes] = None
        while True:
            pairs, _ = self.merged_range(
                namespace, node_ids, None, start, None, SCAN_CHUNK_KEYS
            )
            yield from pairs
            if len(pairs) < SCAN_CHUNK_KEYS:
                return
            start = _key_after(pairs[-1][0])

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------
    def rebalance(
        self,
        source_ids: Sequence[int],
        target_ids: Optional[Set[int]] = None,
    ) -> RepairReport:
        """Re-replicate every record onto its current preference list.

        ``source_ids`` are the nodes whose stores are trusted as input
        (normally the up nodes); ``target_ids`` optionally restricts which
        nodes are written to / pruned (e.g. just a recovered node).  Down
        nodes must be excluded from both — they catch up through their own
        recovery pass.
        """
        report = RepairReport()
        namespaces: Set[str] = set()
        for node_id in source_ids:
            namespaces.update(self.stores[node_id].namespaces())
        targets = (
            set(self.stores) if target_ids is None else target_ids & set(self.stores)
        )
        # The pass is an external merge in chunks of SCAN_CHUNK_KEYS keys:
        # each chunk streams fresh per-replica iterators from a cursor,
        # resolves newest-wins, *then* applies its copies and discards with
        # no iterator left open (mutating a store under iteration — or
        # triggering an engine flush — would invalidate them).  Resident
        # memory is bounded by the chunk size, never the namespace size.
        extra_holders = [nid for nid in sorted(targets) if nid not in set(source_ids)]
        for namespace in sorted(namespaces):
            cursor: Optional[bytes] = None
            while True:
                chunk = self._resolve_chunk(
                    namespace, source_ids, extra_holders, cursor,
                    SCAN_CHUNK_KEYS,
                )
                for key, record, holders in chunk:
                    report.keys_examined += 1
                    owners = self.preference_list(namespace, key)
                    for node_id in owners:
                        if node_id not in targets:
                            continue
                        if self.stores[node_id].apply_record(
                            namespace, key, record
                        ):
                            report._count_copy(node_id, len(record))
                    for node_id in holders:
                        if node_id in targets and node_id not in owners:
                            if self.stores[node_id].discard(namespace, key):
                                report.keys_removed += 1
                if len(chunk) < SCAN_CHUNK_KEYS:
                    break
                cursor = chunk[-1][0]
        return report

    def _resolve_chunk(
        self,
        namespace: str,
        source_ids: Sequence[int],
        extra_holders: Sequence[int],
        cursor: Optional[bytes],
        chunk_keys: int,
    ) -> List[Tuple[bytes, bytes, List[int]]]:
        """Resolve up to ``chunk_keys`` keys after ``cursor`` for repair.

        Walks :meth:`copies` of sources and extras and returns ``(key,
        newest source record, holder node ids)`` per key that at least one
        *source* holds (keys present only on ``extra_holders`` are skipped —
        repair never trusts them as input); holders span sources and
        extras.  The walk is closed before returning, so the caller may
        freely mutate the stores afterwards.
        """
        start = None if cursor is None else _key_after(cursor)
        trusted = set(source_ids)
        chunk: List[Tuple[bytes, bytes, List[int]]] = []
        walk = self.copies(namespace, [*source_ids, *extra_holders], start)
        for key, held in walk:
            best: Optional[bytes] = None
            for node_id, record in held:
                if node_id in trusted and (
                    best is None or record_seq(record) > record_seq(best)
                ):
                    best = record
            if best is not None:
                chunk.append((key, best, [node_id for node_id, _ in held]))
                if len(chunk) == chunk_keys:
                    break
        walk.close()
        return chunk

    def copies(
        self, namespace: str, node_ids: Sequence[int], start: Optional[bytes]
    ) -> Iterator[Tuple[bytes, List[Tuple[int, bytes]]]]:
        """Every key the replicas of ``node_ids`` hold from ``start`` on, in
        key order, with its ``(node id, record)`` copies in ``node_ids``
        order (tombstones included).

        Streams one lazy iterator per replica, so the stores must not change
        while the walk is open: close it before writing.
        """
        streams = [
            zip(repeat(node_id), self.stores[node_id].iter_range_records(
                namespace, start, None
            ))
            for node_id in node_ids
        ]
        merged = heapq.merge(*streams, key=_copy_key)
        for key, group in groupby(merged, key=_copy_key):
            yield key, [(node_id, record) for node_id, (_, record) in group]

    def replay_hints(self, node_id: int) -> RepairReport:
        """Apply (and drain) the hint buffer for a recovered node."""
        report = RepairReport()
        store = self.stores[node_id]
        for (namespace, key), record in self.take_hints(node_id).items():
            report.hints_replayed += 1
            if store.apply_record(namespace, key, record):
                report._count_copy(node_id, len(record))
        return report

    def sync_node(self, node_id: int, source_ids: Sequence[int]) -> RepairReport:
        """Bring one (just-recovered) node up to date: hints + anti-entropy."""
        report = self.replay_hints(node_id)
        sources = [nid for nid in source_ids if nid != node_id] or [node_id]
        return report.merged_with(self.rebalance(sources, target_ids={node_id}))
