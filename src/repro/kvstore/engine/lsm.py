"""LSM-lite persistent engine: memtables, WAL, sorted segments, compaction.

One :class:`LsmEngine` owns one node's directory::

    node-<id>/
        wal.log            engine-wide write-ahead log
        seg-<gen>.seg      immutable sorted runs (gen = age order)
        spill/             scratch runs for budgeted bulk loads

Writes land in a per-namespace **memtable** after being framed into the
WAL: a dict whose ``None`` values are engine-level delete markers, beside
the :class:`~repro.kvstore.memory.SortedKeys` index the dict engine's map
uses too, which keeps the keys in byte order as they arrive — a range after
a write bisects it, and a flush walks it, without sorting anything.  When
the engine-wide memtable budget is exceeded, every dirty memtable is flushed
to a new segment file and the WAL is reset — so at any instant
``segments + WAL`` covers the full acknowledged history, which is the
invariant crash recovery relies on.

A point read asks the memtable, then the segment stack newest-first; the
key's two filter hashes are computed once and handed to every segment, and
a segment reads a block only when the key is inside its bounds and passes
its filter (:meth:`Segment.get`).  A *limited* range — what every serving
read is — goes through :func:`~repro.kvstore.memory.merge_slices`, the
chunked slice-and-resolve that also merges replicas one layer up
(``ReplicationManager.merged_range``): each segment and the memtable
contribute at most ``limit`` entries, a dict updated oldest to newest
resolves newest-wins, and live keys are emitted up to the merge's
*horizon*, with a further pass when delete markers leave the result
short.  Memory is bounded by ``limit`` times the run count.  Unlimited
iteration (compaction, anti-entropy) streams through
:func:`_merged`, a ``heapq.merge`` over natively comparable ``(key, age
tag, value)`` tuples that dedupes per key and holds one block of entries
per run: a per-key list of copies, as the chunked merge builds, would slow
that path.

**Size-tiered compaction** merges *age-contiguous* runs of ``fanout`` or
more segments in the same size tier.  Age contiguity is a correctness
requirement, not a heuristic: merging non-adjacent segments would let the
merged (newer-positioned) run shadow values written between its inputs.
The merged segment atomically replaces the run's *oldest* member (keeping
its generation number, hence its age position) and the newer members are
deleted afterwards; delete markers are dropped only when the run includes
the oldest segment, since only then is there nothing beneath them left to
shadow.  Compaction is surfaced as ``maintenance_backlog()`` units that the
serving event kernel drains in the background; a hard per-tree segment cap
compacts inline as a backstop for non-serving runs.

Generation numbers double as the recovery ordering: a fresh engine (or
:meth:`recover` after :meth:`crash`) loads every segment with a valid
footer in generation order, discards partially written segments (their
contents are still in the WAL) together with what a crash inside a segment
write or a bulk load left beside them (``seg-*.seg.tmp``, ``spill/``),
replays the WAL — truncating a torn tail — and is back to exactly the
acknowledged state, in a directory holding only the log and whole runs.

That holds for a process crash at *any* instant, not only between
operations: every step orders its file changes so that what is on disk
between two of them recovers to the state before the operation in flight or
the state after it (``tests/kvstore/test_crash_points.py`` stops at every
write, rename, removal and truncation).  A frame torn mid-append was never
acknowledged; a segment is renamed into place whole, and the log is reset
only after that; a merged run goes in *beneath* the members it replaces, so
one that outlives the crash shadows it with the same entries.  Under
``sync_writes`` a rename is also made durable (an fsync of the directory)
before the log is reset or a merged run's inputs are removed.

A tree knows nothing of the range memo one tier up: every change of its
content that the replication tier makes goes through a replica store's
doors, which tell the memo (:mod:`repro.replication.store`), and the cluster
clears the memo after the changes that bypass them — a bulk load's segment
install and a crash and recovery.  A flush or a compaction moves entries
between runs without changing what any read returns.
"""

from __future__ import annotations

import heapq
import os
import re
import shutil
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..memory import SortedKeys, merge_slices
from .base import EngineRecovery, StorageEngine
from .external import SpillingSorter
from .segment import Entry, Segment, SegmentError, filter_hashes, write_segment
from .wal import OP_DELETE, OP_DROP_NAMESPACE, OP_PUT, WriteAheadLog

#: Rough per-entry memtable overhead (dict slot + key/value objects).
_MEM_ENTRY_OVERHEAD = 64

_SEGMENT_NAME = re.compile(r"^seg-(\d{8})\.seg$")


def _tagged(blocks: Iterable[List[Entry]], tag: int) -> Iterator[Tuple]:
    """Every entry of a run as ``(key, tag, value)``, tagged a block list at a time."""
    return chain.from_iterable(
        [(key, tag, value) for key, value in entries] for entries in blocks
    )


def _newest(chunks: List[List[Entry]]) -> Dict[bytes, Optional[bytes]]:
    """Each key's newest value across runs given oldest first, memtable last:
    a later pair overwrites an earlier one."""
    return dict(chain.from_iterable(chunks))


def _merged(
    runs: List[Iterable[List[Entry]]],
    ascending: bool = True,
    keep_markers: bool = False,
) -> Iterator[Entry]:
    """Merge runs (oldest first, each a stream of block lists) newest-wins.

    ``heapq.merge`` compares the tagged tuples natively.  The tag is the
    run's age, negated when ascending, so equal keys arrive newest first in
    either direction; no two entries share ``(key, age)``, so values are
    never compared.  One block list per run is alive at a time.
    """
    sources = [
        _tagged(blocks, -age if ascending else age)
        for age, blocks in enumerate(runs)
    ]
    previous: Optional[bytes] = None
    for key, _tag, value in heapq.merge(*sources, reverse=not ascending):
        if key != previous:
            previous = key
            if value is not None or keep_markers:
                yield key, value


class LsmTree:
    """One namespace's view: a memtable over a stack of segments.

    Presents the namespace-map surface of
    :mod:`~repro.kvstore.engine.base` (``get``/``put``/``delete``/``range``/
    ``iter_range``) so the replication tier is engine-agnostic.  ``None``
    memtable values are delete markers shadowing older segment entries.
    """

    def __init__(self, namespace: str, engine: "LsmEngine"):
        self.namespace = namespace
        self._engine = engine
        self._mem: Dict[bytes, Optional[bytes]] = {}
        self._mem_keys = SortedKeys()
        self.mem_bytes = 0
        #: Oldest -> newest; the memtable is newer than all of them.
        self.segments: List[Segment] = []

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        if key in self._mem:
            return self._mem[key]
        if self.segments:
            hashes = filter_hashes(key)
            for segment in reversed(self.segments):
                found, value = segment.get(key, hashes)
                if found:
                    return value
        return None

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"values must be bytes, got {type(value).__name__}")
        value = bytes(value)
        engine = self._engine
        engine.wal.append_put(self.namespace, key, value)
        self._apply_put(key, value)
        if engine._memtable_bytes > engine.memtable_budget_bytes:
            engine.flush()

    def delete(self, key: bytes) -> bool:
        if self.get(key) is None:
            return False
        engine = self._engine
        engine.wal.append_delete(self.namespace, key)
        self._apply_delete(key)
        if engine._memtable_bytes > engine.memtable_budget_bytes:
            engine.flush()
        return True

    # ------------------------------------------------------------------
    # Memtable internals (WAL-free: also used by recovery replay)
    # ------------------------------------------------------------------
    def _account(self, delta: int) -> None:
        """Move this memtable's size and the engine's running total together."""
        self.mem_bytes += delta
        self._engine._memtable_bytes += delta

    def _apply_put(self, key: bytes, value: Optional[bytes]) -> None:
        mem = self._mem
        delta = 0 if value is None else len(value)
        if key in mem:
            old = mem[key]
            if old is not None:
                delta -= len(old)
        else:
            self._mem_keys.add(key)
            delta += len(key) + _MEM_ENTRY_OVERHEAD
        mem[key] = value
        self.mem_bytes += delta  # _account, in place: every put comes through here
        self._engine._memtable_bytes += delta

    def _apply_delete(self, key: bytes) -> None:
        if self.segments:
            # A marker must shadow whatever older segments hold.
            self._apply_put(key, None)
        elif key in self._mem:
            value = self._mem.pop(key)
            self._mem_keys.remove(key)
            self._account(-(len(key) + len(value or b"") + _MEM_ENTRY_OVERHEAD))

    def _reset_memtable(self) -> None:
        self._mem.clear()
        self._mem_keys.clear()
        self._account(-self.mem_bytes)

    def _mem_range(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
        limit: Optional[int] = None,
    ) -> List[Entry]:
        """The memtable's entries in a range, markers included, in scan order."""
        keys, lo, hi = self._mem_keys.span(start, end)
        if limit is not None:
            if ascending:
                hi = min(hi, lo + limit)
            else:
                lo = max(lo, hi - limit)
        chunk = keys[lo:hi]
        if not ascending:
            chunk.reverse()
        return list(zip(chunk, map(self._mem.__getitem__, chunk)))

    # ------------------------------------------------------------------
    # Merged iteration
    # ------------------------------------------------------------------
    def iter_range(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Stream live ``(key, value)`` pairs, newest write per key winning.

        The tree must not be mutated or flushed while the iterator is live
        (same contract as ``OrderedKVMap.iter_range``).
        """
        runs: List[Iterable[List[Entry]]] = [
            segment.iter_blocks(start, end, ascending) for segment in self.segments
        ]
        runs.append([self._mem_range(start, end, ascending)])
        return _merged(runs, ascending)

    # ------------------------------------------------------------------
    # OrderedKVMap-compatible range surface
    # ------------------------------------------------------------------
    def range(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[Tuple[bytes, bytes]]:
        """Live ``(key, value)`` pairs in a range, newest write per key winning.

        With a ``limit`` this is :func:`~repro.kvstore.memory.merge_slices`
        over the segments and the memtable; the limit applies after
        resolution, so runs that lead with delete markers cannot starve
        the result.
        """
        if limit is None:
            return list(self.iter_range(start, end, ascending))
        if limit < 0:
            raise ValueError("limit must be non-negative")

        def read(
            start: Optional[bytes], end: Optional[bytes], remaining: int
        ) -> List[List[Entry]]:
            chunks = [
                segment.read_range(start, end, remaining, ascending)
                for segment in self.segments
            ]
            chunks.append(self._mem_range(start, end, ascending, remaining))
            return chunks

        return merge_slices(read, _newest, start, end, limit, ascending)



class LsmEngine(StorageEngine):
    """Persistent per-node engine built from LSM trees over one directory."""

    name = "lsm"
    durable = True

    def __init__(
        self,
        data_dir: str,
        memtable_budget_bytes: int = 4 << 20,
        fanout: int = 4,
        sparse_index_every: int = 32,
        sync_writes: bool = False,
    ):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.data_dir = data_dir
        self.memtable_budget_bytes = memtable_budget_bytes
        self.fanout = fanout
        self.sparse_index_every = sparse_index_every
        self.sync_writes = sync_writes
        #: Inline-compaction backstop for runs without a serving kernel.
        self.hard_segment_cap = fanout * 4
        os.makedirs(data_dir, exist_ok=True)
        self._trees: Dict[str, LsmTree] = {}
        #: Sum of every tree's ``mem_bytes``, kept by ``LsmTree._account``.
        self._memtable_bytes = 0
        self._next_gen = 0
        self._crashed = False
        # Lifetime counters (monotonic; exported as gauges).
        self.flushes = 0
        self.compactions = 0
        self.recoveries = 0
        self.bulk_spill_count = 0
        self.wal_records_replayed = 0
        self.torn_tail_bytes_dropped = 0
        self.partial_segments_discarded = 0
        self.wal = WriteAheadLog(self._wal_path(), sync=sync_writes)
        self._restore()

    def _wal_path(self) -> str:
        return os.path.join(self.data_dir, "wal.log")

    def _segment_path(self, gen: int) -> str:
        return os.path.join(self.data_dir, f"seg-{gen:08d}.seg")

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _tree(self, namespace: str) -> LsmTree:
        tree = self._trees.get(namespace)
        if tree is None:
            tree = LsmTree(namespace, self)
            self._trees[namespace] = tree
        return tree

    def map(self, namespace: str) -> LsmTree:
        if self._crashed:
            raise RuntimeError("lsm engine is crashed; call recover() first")
        return self._tree(namespace)

    def peek(self, namespace: str) -> Optional[LsmTree]:
        return self._trees.get(namespace)

    def namespaces(self) -> List[str]:
        return sorted(self._trees)

    def _discard(self, tree: LsmTree) -> None:
        """Delete everything ``tree`` holds: its segment files, its memtable."""
        for segment in tree.segments:
            segment.close()
            try:
                os.remove(segment.path)
            except OSError:
                pass
        tree.segments = []
        tree._reset_memtable()

    def _sync_dir(self) -> None:
        """Under ``sync_writes``, make the directory's renames durable."""
        if self.sync_writes:
            fd = os.open(self.data_dir, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def memtable_bytes(self) -> int:
        """Bytes held by every tree's memtable (a running total)."""
        return self._memtable_bytes

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _add_run(
        self, tree: LsmTree, items: Iterable[Entry], expected_keys: int
    ) -> None:
        """Write ``items`` as ``tree``'s newest segment (none, if they are none)."""
        path = self._segment_path(self._next_gen)
        self._next_gen += 1
        write_segment(
            path, tree.namespace, items, self.sparse_index_every, expected_keys
        )
        segment = Segment(path)
        if segment.entry_count:
            tree.segments.append(segment)
        else:
            segment.close()
            os.remove(path)

    def flush(self) -> None:
        """Write every dirty memtable to a segment, then reset the WAL."""
        flushed = []
        for tree in self._trees.values():
            if not tree._mem:
                continue
            items = tree._mem_range()
            if not tree.segments:
                # Nothing beneath to shadow: drop markers at the bottom.
                items = [item for item in items if item[1] is not None]
            self._add_run(tree, items, len(tree._mem))
            tree._reset_memtable()
            self.flushes += 1
            flushed.append(tree)
        # Disk segments now cover every acknowledged write.
        self._sync_dir()
        self.wal.reset()
        for tree in flushed:
            while len(tree.segments) > self.hard_segment_cap:
                self._compact_run(
                    tree, 0, min(len(tree.segments), self.fanout + 1)
                )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    @staticmethod
    def _tier(segment: Segment) -> int:
        # Each tier spans a 4x size band.
        return max(0, (max(segment.size_bytes, 1).bit_length() - 1) // 2)

    def _candidate_runs(self, tree: LsmTree) -> List[Tuple[int, int]]:
        """Age-contiguous same-tier runs of at least ``fanout`` segments."""
        runs: List[Tuple[int, int]] = []
        segments = tree.segments
        i = 0
        while i < len(segments):
            tier = self._tier(segments[i])
            j = i
            while j < len(segments) and self._tier(segments[j]) == tier:
                j += 1
            if j - i >= self.fanout:
                runs.append((i, j))
            i = j
        return runs

    def _compact_run(self, tree: LsmTree, i: int, j: int) -> None:
        """Merge ``tree.segments[i:j]`` into one segment at position ``i``.

        The merged file atomically replaces the run's *oldest* member
        (keeping its generation, hence its recovery-order position); the
        newer members are deleted afterwards.  A member that outlives a
        crash between the two therefore sits above the merged run, which
        already holds its entries, and shadows it correctly — markers the
        merge dropped included.
        """
        run = tree.segments[i:j]
        if len(run) < 2:
            return
        path = run[0].path
        write_segment(
            path,
            tree.namespace,
            # Markers go only when nothing older is left for them to shadow.
            _merged([segment.iter_blocks() for segment in run], keep_markers=i > 0),
            self.sparse_index_every,
            sum(segment.entry_count for segment in run),
        )
        self._sync_dir()
        replacement = Segment(path)
        for segment in run:
            segment.close()
        for segment in run[1:]:
            try:
                os.remove(segment.path)
            except OSError:
                pass
        if replacement.entry_count:
            tree.segments[i:j] = [replacement]
        else:
            replacement.close()
            os.remove(path)
            tree.segments[i:j] = []
        self.compactions += 1

    def maintenance_backlog(self) -> int:
        return sum(
            len(self._candidate_runs(tree)) for tree in self._trees.values()
        )

    def run_maintenance(self, max_tasks: Optional[int] = None) -> int:
        ran = 0
        while max_tasks is None or ran < max_tasks:
            for tree in self._trees.values():
                runs = self._candidate_runs(tree)
                if runs:
                    self._compact_run(tree, *runs[0])
                    ran += 1
                    break
            else:
                return ran
        return ran

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def bulk_load(self, namespace: str, items) -> int:
        """Build one segment from an unsorted stream under the memtable's
        byte budget.

        Bypasses the WAL: the segment rename is the commit point.  The
        engine flushes first so no stale memtable entry can shadow the new
        (newest) segment.
        """
        tree = self.map(namespace)
        self.flush()
        sorter = SpillingSorter(
            os.path.join(self.data_dir, "spill"),
            budget_bytes=self.memtable_budget_bytes,
        )
        for key, value in items:
            sorter.add(bytes(key), bytes(value))
        stored = 0

        def pairs() -> Iterator[Tuple[bytes, bytes]]:
            nonlocal stored
            for key, value in sorter.iter_sorted():
                stored += 1
                yield key, value

        self._add_run(tree, pairs(), sorter.items_added)
        self._sync_dir()
        self.bulk_spill_count += sorter.spill_count
        return stored

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state; only the WAL and segment files survive."""
        for tree in self._trees.values():
            for segment in tree.segments:
                segment.close()
        self._trees.clear()
        self._memtable_bytes = 0
        self.wal.close()
        self._crashed = True

    def recover(self) -> EngineRecovery:
        """Reload segments and replay the WAL after :meth:`crash`."""
        self.wal = WriteAheadLog(self._wal_path(), sync=self.sync_writes)
        self._crashed = False
        info = self._restore()
        self.recoveries += 1
        return info

    def _restore(self) -> EngineRecovery:
        info = EngineRecovery()
        found: List[Tuple[int, str]] = []
        for name in os.listdir(self.data_dir):
            match = _SEGMENT_NAME.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self.data_dir, name)))
            elif name.endswith(".seg.tmp"):
                # A crash inside ``write_segment``, before the rename that
                # commits it: never a segment, and the WAL (or the runs a
                # compaction was merging) still holds every record in it.
                os.remove(os.path.join(self.data_dir, name))
                info.partial_segments_discarded += 1
            elif name == "spill":
                # Scratch runs of a bulk load the crash interrupted.
                shutil.rmtree(os.path.join(self.data_dir, name))
        for gen, path in sorted(found):
            self._next_gen = max(self._next_gen, gen + 1)
            try:
                segment = Segment(path)
            except SegmentError:
                # No valid footer: the crash hit mid-flush.  The WAL still
                # holds these records, so discarding loses nothing.
                os.remove(path)
                info.partial_segments_discarded += 1
                continue
            self._tree(segment.namespace).segments.append(segment)
            info.segments_loaded += 1
        replay = WriteAheadLog.replay(self.wal.path)
        for op, namespace, key, value in replay.ops:
            tree = self._tree(namespace)
            if op == OP_PUT:
                tree._apply_put(key, value)
            elif op == OP_DELETE:
                tree._apply_delete(key)
            elif op == OP_DROP_NAMESPACE:
                # Only an earlier engine's log holds this op.  Segments
                # too: one still here outlived the drop's own removals, or
                # comes from a flush whose log reset never happened — and
                # then the rest of the log repeats it.
                self._discard(tree)
        info.wal_records_replayed = len(replay.ops)
        info.torn_tail_bytes_dropped = replay.torn_bytes
        self.wal_records_replayed += info.wal_records_replayed
        self.torn_tail_bytes_dropped += info.torn_tail_bytes_dropped
        self.partial_segments_discarded += info.partial_segments_discarded
        return info

    def close(self) -> None:
        if not self._crashed:
            self.flush()
            for tree in self._trees.values():
                for segment in tree.segments:
                    segment.close()
        self.wal.close()

    def destroy(self) -> None:
        """Close without flushing and delete the engine's directory."""
        if not self._crashed:
            for tree in self._trees.values():
                for segment in tree.segments:
                    segment.close()
            self._trees.clear()
        self.wal.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def gauges(self) -> Dict[str, float]:
        segment_count = sum(
            len(tree.segments) for tree in self._trees.values()
        )
        segment_bytes = sum(
            segment.size_bytes
            for tree in self._trees.values()
            for segment in tree.segments
        )
        return {
            "memtable_bytes": float(self.memtable_bytes()),
            "wal_bytes": float(self.wal.size_bytes() if not self._crashed else 0),
            "segment_count": float(segment_count),
            "segment_bytes": float(segment_bytes),
            "compaction_backlog": float(self.maintenance_backlog()),
            "flushes": float(self.flushes),
            "compactions": float(self.compactions),
            "recoveries": float(self.recoveries),
            "wal_records_replayed": float(self.wal_records_replayed),
            "torn_tail_bytes_dropped": float(self.torn_tail_bytes_dropped),
            "partial_segments_discarded": float(self.partial_segments_discarded),
        }
