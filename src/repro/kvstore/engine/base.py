"""The storage-engine interface every node's replica store builds on.

An engine owns the *physical* side of one storage node's data: how the
per-namespace ordered maps the replication tier reads and writes are
actually held (in memory, or on disk behind a WAL and segment files).  The
*logical* side — versioned records, tombstones, newest-wins merging — stays
in :mod:`repro.replication.store` and is identical across engines, which is
what keeps query results and operation counts engine-independent.

A namespace map provides exactly what the replica store calls, and no
more::

    get(key) -> Optional[bytes]
    put(key, value) -> None
    delete(key) -> bool
    range(start, end, limit, ascending) -> List[Tuple[bytes, bytes]]
    iter_range(start, end) -> Iterator[Tuple[bytes, bytes]]

Keys are ``bytes`` and nothing else: ``put`` refuses any other key type (a
``bytearray`` too), so ``get`` and ``delete``, which sit on every read and
write, convert nothing.

Test-and-set and range counts are cluster operations, built one tier up
from quorum reads and writes and from merged ranges; no map serves them.

A map knows nothing of the range memo one tier up
(``ReplicationManager.merged_range``): the memo hears of every change the
replication tier makes through the replica store's doors
(:mod:`repro.replication.store`), and the cluster clears it after an engine
call that changes content past them — :meth:`StorageEngine.bulk_load`, and
:meth:`StorageEngine.crash` / :meth:`StorageEngine.recover` on a durable
engine.  A new such call must clear it too, or range reads go stale.

Everything beyond that — durability, crash recovery, background
maintenance, gauges — goes through the engine object itself so the cluster
and telemetry tiers can treat engines uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Longest namespace name, in UTF-8 bytes, that every engine holds: the
#: write-ahead log (:mod:`repro.kvstore.engine.wal`) stores its length in
#: 16 bits.
MAX_NAMESPACE_BYTES = 0xFFFF


@dataclass
class EngineRecovery:
    """What one crash-recovery pass restored from durable state.

    ``wal_records_replayed`` counts every logged operation re-applied to the
    memtables; ``torn_tail_bytes_dropped`` is the length of the truncated
    partial record at the WAL tail (zero on a clean shutdown); partially
    written segment files (no valid footer) are discarded and counted —
    their contents are still covered by the WAL, which is only reset
    *after* a flush completes.
    """

    segments_loaded: int = 0
    partial_segments_discarded: int = 0
    wal_records_replayed: int = 0
    torn_tail_bytes_dropped: int = 0


class StorageEngine:
    """Base class for per-node storage engines.

    Subclasses override the data-path methods; the maintenance / recovery
    surface defaults to no-ops so a purely in-memory engine needs nothing
    beyond :meth:`map`.
    """

    #: Engine name as configured (``ClusterConfig.storage_engine``).
    name: str = "abstract"
    #: Whether state survives a process crash.  Durable engines get their
    #: :meth:`crash`/:meth:`recover` pair invoked by the cluster's
    #: crash/recover path; volatile engines keep state in-process (the
    #: simulator's historical behaviour) and recover purely through hinted
    #: handoff and anti-entropy.
    durable: bool = False

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def map(self, namespace: str):
        """The (created-on-demand) ordered map backing one namespace."""
        raise NotImplementedError

    def peek(self, namespace: str):
        """The namespace map if it already exists, else ``None``.

        Read paths use this so probing a namespace a node has never stored
        does not create empty per-namespace state.
        """
        raise NotImplementedError

    def namespaces(self) -> List[str]:
        raise NotImplementedError

    def bulk_load(
        self, namespace: str, items: Iterable[Tuple[bytes, bytes]]
    ) -> int:
        """Load many ``(key, value)`` pairs, returning how many were stored.

        Items may arrive in any order and may repeat keys (the last
        occurrence wins).  The default implementation just puts them one at
        a time; durable engines override this with a segment-building
        pipeline that bypasses the WAL.
        """
        target = self.map(namespace)
        count = 0
        for key, value in items:
            target.put(key, value)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Durability / maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Make all buffered state durable (no-op for volatile engines)."""

    def maintenance_backlog(self) -> int:
        """Pending background-maintenance units (compactions ready to run)."""
        return 0

    def run_maintenance(self, max_tasks: Optional[int] = None) -> int:
        """Run up to ``max_tasks`` maintenance units; return how many ran."""
        return 0

    def crash(self) -> None:
        """Simulate a process crash: volatile state is lost, files survive."""

    def recover(self) -> EngineRecovery:
        """Rebuild serving state from durable storage after a crash."""
        return EngineRecovery()

    def close(self) -> None:
        """Release file handles; the engine must not be used afterwards."""

    def destroy(self) -> None:
        """Close and delete all on-disk state (a node leaving the cluster)."""
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        """Point-in-time engine gauges, scraped into fleet telemetry.

        Keys are engine-relative (``memtable_bytes``, ``segment_count``,
        ...); the telemetry collector prefixes them with ``engine.``.
        """
        return {}
