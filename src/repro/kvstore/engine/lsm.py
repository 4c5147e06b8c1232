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
read is — is a chunked slice-and-resolve, the shape
``ReplicationManager.merged_range`` has one layer up: each segment and the
memtable contribute at most ``limit`` entries, a dict updated oldest to
newest resolves newest-wins, live keys are emitted up to the *horizon* (the
least-advanced last key among the runs that filled their chunk — past it
some run has not been heard), and when delete markers leave the result
short a further pass resumes just past the horizon.  Memory is bounded by
``limit`` times the run count.  Unlimited iteration (compaction, anti-entropy,
``len``) streams through :meth:`LsmTree.iter_merged`, a ``heapq.merge`` that
dedupes per key and holds one entry per run.

**Size-tiered compaction** merges *age-contiguous* runs of ``fanout`` or
more segments in the same size tier.  Age contiguity is a correctness
requirement, not a heuristic: merging non-adjacent segments would let the
merged (newer-positioned) run shadow values written between its inputs.
The merged segment atomically replaces the run's newest member (keeping
its generation number, hence its age position) and the older members are
deleted; delete markers are dropped only when the run includes the oldest
segment, since only then is there nothing beneath them left to shadow.
Compaction is surfaced as ``maintenance_backlog()`` units that the serving
event kernel drains in the background; a hard per-tree segment cap compacts
inline as a backstop for non-serving runs.

Generation numbers double as the recovery ordering: a fresh engine (or
:meth:`recover` after :meth:`crash`) loads every segment with a valid
footer in generation order, discards partially written segments (their
contents are still in the WAL), replays the WAL — truncating a torn tail —
and is back to exactly the acknowledged state.  The simulator's ``crash()``
happens between operations, never inside a flush or compaction step.
"""

from __future__ import annotations

import bisect
import heapq
import os
import re
import shutil
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..memory import SortedKeys
from .base import EngineRecovery, StorageEngine
from .external import SpillingSorter
from .segment import Segment, SegmentError, filter_hashes, write_segment
from .wal import OP_DELETE, OP_DROP_NAMESPACE, OP_PUT, WriteAheadLog

#: Rough per-entry memtable overhead (dict slot + key/value objects).
_MEM_ENTRY_OVERHEAD = 64

_SEGMENT_NAME = re.compile(r"^seg-(\d{8})\.seg$")


def _tagged(pairs, priority: int):
    """Tag ``(key, value)`` pairs with a merge priority, bound eagerly."""
    return ((key, priority, value) for key, value in pairs)


class LsmTree:
    """One namespace's view: a memtable over a stack of segments.

    Presents the same surface as :class:`~repro.kvstore.memory.OrderedKVMap`
    so the replication tier is engine-agnostic.  ``None`` memtable values
    are delete markers shadowing older segment entries.
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
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"values must be bytes, got {type(value).__name__}")
        key, value = bytes(key), bytes(value)
        self._engine._log_put(self.namespace, key, value)
        self._apply_put(key, value)
        self._engine._after_mutation()

    def delete(self, key: bytes) -> bool:
        if self.get(key) is None:
            return False
        self._engine._log_delete(self.namespace, key)
        self._apply_delete(key)
        self._engine._after_mutation()
        return True

    def test_and_set(
        self, key: bytes, expected: Optional[bytes], new_value: bytes
    ) -> bool:
        if self.get(key) != expected:
            return False
        self.put(key, new_value)
        return True

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.count_range()

    # ------------------------------------------------------------------
    # Memtable internals (WAL-free: also used by recovery replay)
    # ------------------------------------------------------------------
    def _entry_bytes(self, key: bytes, value: Optional[bytes]) -> int:
        return len(key) + (0 if value is None else len(value)) + _MEM_ENTRY_OVERHEAD

    def _account(self, delta: int) -> None:
        """Move this memtable's size and the engine's running total together."""
        self.mem_bytes += delta
        self._engine._memtable_bytes += delta

    def _apply_put(self, key: bytes, value: Optional[bytes]) -> None:
        delta = self._entry_bytes(key, value)
        if key in self._mem:
            delta -= self._entry_bytes(key, self._mem[key])
        else:
            self._mem_keys.add(key)
        self._mem[key] = value
        self._account(delta)

    def _apply_delete(self, key: bytes) -> None:
        if self.segments:
            # A marker must shadow whatever older segments hold.
            self._apply_put(key, None)
        elif key in self._mem:
            self._account(-self._entry_bytes(key, self._mem.pop(key)))
            self._mem_keys.remove(key)

    def _reset_memtable(self) -> None:
        self._mem.clear()
        self._mem_keys.clear()
        self._account(-self.mem_bytes)

    def _mem_iter(
        self,
        start: Optional[bytes],
        end: Optional[bytes],
        ascending: bool,
    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        keys, lo, hi = self._mem_keys.span(start, end)
        indices = range(lo, hi) if ascending else range(hi - 1, lo - 1, -1)
        for index in indices:
            key = keys[index]
            yield key, self._mem[key]

    # ------------------------------------------------------------------
    # Merged iteration
    # ------------------------------------------------------------------
    def iter_merged(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Stream live ``(key, value)`` pairs, newest write per key winning.

        The tree must not be mutated or flushed while the iterator is live
        (same contract as ``OrderedKVMap.iter_range``).
        """
        sources = [
            _tagged(segment.iter_range(start, end, ascending), priority)
            for priority, segment in enumerate(self.segments)
        ]
        sources.append(
            _tagged(self._mem_iter(start, end, ascending), len(self.segments))
        )
        if ascending:
            merged = heapq.merge(*sources, key=lambda e: (e[0], -e[1]))
        else:
            merged = heapq.merge(
                *sources, key=lambda e: (e[0], e[1]), reverse=True
            )
        previous: Optional[bytes] = None
        for key, _priority, value in merged:
            if key == previous:
                continue
            previous = key
            if value is not None:
                yield key, value

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

        With a ``limit`` this is the chunked slice-and-resolve the module
        docstring describes; the limit applies after resolution, so runs
        that lead with delete markers cannot starve the result.
        """
        if limit is None:
            return list(self.iter_merged(start, end, ascending))
        if limit < 0:
            raise ValueError("limit must be non-negative")
        out: List[Tuple[bytes, bytes]] = []
        remaining = limit
        while remaining > 0:
            newest: Dict[bytes, Optional[bytes]] = {}
            horizon: Optional[bytes] = None
            # Oldest run first, memtable last: a later update overwrites.
            runs = [
                segment.iter_range(start, end, ascending)
                for segment in self.segments
            ]
            runs.append(self._mem_iter(start, end, ascending))
            for run in runs:
                chunk = list(islice(run, remaining))
                newest.update(chunk)
                if len(chunk) == remaining:
                    last = chunk[-1][0]
                    if horizon is None or (
                        last < horizon if ascending else last > horizon
                    ):
                        horizon = last
            keys = sorted(newest)
            if horizon is not None:
                # Past the horizon a truncated run may hold a newer write
                # (or a delete marker) it has not shown yet.
                if ascending:
                    del keys[bisect.bisect_right(keys, horizon):]
                else:
                    del keys[: bisect.bisect_left(keys, horizon)]
            if not ascending:
                keys.reverse()
            for key in keys:
                value = newest[key]
                if value is not None:
                    out.append((key, value))
                    if len(out) == limit:
                        return out
            if horizon is None:
                break  # every run ended inside its chunk
            remaining = limit - len(out)
            if ascending:
                start = horizon + b"\x00"
            else:
                end = horizon
        return out

    def iter_range(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        return self.iter_merged(start, end, ascending)

    def count_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        return sum(1 for _ in self.iter_merged(start, end))

    def iter_items(self) -> Iterator[Tuple[bytes, bytes]]:
        return self.iter_merged()

    def clear(self) -> None:
        self._engine._clear_tree(self)


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
        self.bulk_loads = 0
        self.bulk_spill_count = 0
        self.wal_records_replayed = 0
        self.torn_tail_bytes_dropped = 0
        self.partial_segments_discarded = 0
        self.wal = WriteAheadLog(self._wal_path(), sync=sync_writes)
        #: Recovery outcome from opening a pre-existing directory (all
        #: zeroes for a fresh one).
        self.last_recovery = self._restore()

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

    def drop_namespace(self, namespace: str) -> None:
        tree = self._trees.pop(namespace, None)
        if tree is None:
            return
        self._memtable_bytes -= tree.mem_bytes
        self.wal.append_drop_namespace(namespace)
        for segment in tree.segments:
            segment.close()
            try:
                os.remove(segment.path)
            except OSError:
                pass

    def _clear_tree(self, tree: LsmTree) -> None:
        self.wal.append_drop_namespace(tree.namespace)
        for segment in tree.segments:
            segment.close()
            try:
                os.remove(segment.path)
            except OSError:
                pass
        tree.segments = []
        tree._reset_memtable()

    # ------------------------------------------------------------------
    # WAL hooks (called by trees before mutating their memtables)
    # ------------------------------------------------------------------
    def _log_put(self, namespace: str, key: bytes, value: bytes) -> None:
        self.wal.append_put(namespace, key, value)

    def _log_delete(self, namespace: str, key: bytes) -> None:
        self.wal.append_delete(namespace, key)

    def _after_mutation(self) -> None:
        if self._memtable_bytes > self.memtable_budget_bytes:
            self.flush()

    def memtable_bytes(self) -> int:
        """Bytes held by every tree's memtable (a running total)."""
        return self._memtable_bytes

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write every dirty memtable to a segment, then reset the WAL."""
        flushed = []
        for tree in self._trees.values():
            if not tree._mem:
                continue
            items = tree._mem_iter(None, None, True)
            if not tree.segments:
                # Nothing beneath to shadow: drop markers at the bottom.
                items = (item for item in items if item[1] is not None)
            gen = self._next_gen
            self._next_gen += 1
            path = self._segment_path(gen)
            write_segment(
                path,
                tree.namespace,
                items,
                self.sparse_index_every,
                len(tree._mem),
            )
            segment = Segment(path)
            if segment.entry_count:
                tree.segments.append(segment)
            else:
                segment.close()
                os.remove(path)
            tree._reset_memtable()
            self.flushes += 1
            flushed.append(tree)
        # Disk segments now cover every acknowledged write.
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
        """Merge ``tree.segments[i:j]`` into one segment at position ``j-1``.

        The merged file atomically replaces the run's newest member
        (keeping its generation, hence its recovery-order position); older
        members are deleted afterwards.
        """
        run = tree.segments[i:j]
        if len(run) < 2:
            return
        drop_markers = i == 0
        sources = [
            _tagged(segment.iter_range(), priority)
            for priority, segment in enumerate(run)
        ]
        merged = heapq.merge(*sources, key=lambda e: (e[0], -e[1]))

        def live() -> Iterator[Tuple[bytes, Optional[bytes]]]:
            previous: Optional[bytes] = None
            for key, _priority, value in merged:
                if key == previous:
                    continue
                previous = key
                if value is None and drop_markers:
                    continue
                yield key, value

        path = run[-1].path
        write_segment(
            path,
            tree.namespace,
            live(),
            self.sparse_index_every,
            sum(segment.entry_count for segment in run),
        )
        replacement = Segment(path)
        for segment in run:
            segment.close()
        for segment in run[:-1]:
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
    def bulk_load(
        self, namespace: str, items, memory_budget_bytes: Optional[int] = None
    ) -> int:
        """Build one segment from an unsorted stream under a byte budget.

        Bypasses the WAL: the segment rename is the commit point.  The
        engine flushes first so no stale memtable entry can shadow the new
        (newest) segment.
        """
        tree = self.map(namespace)
        self.flush()
        budget = memory_budget_bytes or self.memtable_budget_bytes
        sorter = SpillingSorter(
            os.path.join(self.data_dir, "spill"), budget_bytes=budget
        )
        for key, value in items:
            sorter.add(bytes(key), bytes(value))
        gen = self._next_gen
        self._next_gen += 1
        path = self._segment_path(gen)
        stored = 0

        def pairs() -> Iterator[Tuple[bytes, bytes]]:
            nonlocal stored
            for key, value in sorter.iter_sorted():
                stored += 1
                yield key, value

        write_segment(
            path, namespace, pairs(), self.sparse_index_every,
            sorter.items_added,
        )
        self.bulk_spill_count += sorter.spill_count
        self.bulk_loads += 1
        segment = Segment(path)
        if segment.entry_count:
            tree.segments.append(segment)
        else:
            segment.close()
            os.remove(path)
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
                tree._reset_memtable()
        self.wal.records_appended = len(replay.ops)
        info.wal_records_replayed = len(replay.ops)
        info.torn_tail_bytes_dropped = replay.torn_bytes
        info.namespaces = self.namespaces()
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
