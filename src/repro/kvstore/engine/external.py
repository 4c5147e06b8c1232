"""Memory-budgeted external sorting for bulk loads and big offline scans.

A :class:`SpillingSorter` accepts ``(key, value)`` pairs in arbitrary order
(duplicates allowed — the *last* occurrence of a key wins) and yields them
back key-sorted while holding at most its byte budget in memory.  When the
in-memory buffer exceeds the budget it is sorted and spilled to an
append-only run file; the final iteration is a streaming k-way
``heapq.merge`` of every spilled run plus the remaining buffer, deduped
last-wins by an insertion sequence number.

:class:`SpillPool` shares one budget across many sorters (one per
namespace during a bulk load): whenever the pool's total resident bytes
exceed the budget, the largest sorter spills.  Resident memory is thus
bounded by the configured budget regardless of how many rows or namespaces
the load touches.

Run files use the same CRC-free framing everywhere (they are scratch files
that never outlive the process, so torn-write protection is unnecessary)::

    entry = key_len u32 | seq u64 | val_len u32 | key | value
"""

from __future__ import annotations

import heapq
import os
import struct
from typing import Dict, Iterator, List, Optional, Tuple

_ENTRY = struct.Struct(">IQI")

#: Rough per-entry bookkeeping overhead (tuple + int + list slot).
_ENTRY_OVERHEAD = 64


def _iter_run(path: str) -> Iterator[Tuple[bytes, int, bytes]]:
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_ENTRY.size)
            if len(header) < _ENTRY.size:
                return
            key_len, seq, val_len = _ENTRY.unpack(header)
            key = handle.read(key_len)
            value = handle.read(val_len)
            yield key, seq, value


class SpillingSorter:
    """Sort an arbitrarily large stream of pairs under a byte budget."""

    def __init__(
        self,
        spill_dir: str,
        budget_bytes: Optional[int] = None,
        name: str = "run",
    ):
        self.spill_dir = spill_dir
        self.budget_bytes = budget_bytes
        self.name = name
        self._buffer: List[Tuple[bytes, int, bytes]] = []
        self._seq = 0
        self.buffered_bytes = 0
        self._runs: List[str] = []
        self.items_added = 0
        self.spill_count = 0

    def add(self, key: bytes, value: bytes) -> None:
        self._buffer.append((key, self._seq, value))
        self._seq += 1
        self.items_added += 1
        self.buffered_bytes += len(key) + len(value) + _ENTRY_OVERHEAD
        if self.budget_bytes is not None and self.buffered_bytes > self.budget_bytes:
            self.spill()

    def spill(self) -> None:
        """Sort the buffer and write it to a new run file."""
        if not self._buffer:
            return
        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(
            self.spill_dir, f"{self.name}-{len(self._runs):06d}.run"
        )
        self._buffer.sort(key=lambda entry: (entry[0], entry[1]))
        with open(path, "wb") as handle:
            for key, seq, value in self._buffer:
                handle.write(_ENTRY.pack(len(key), seq, len(value)))
                handle.write(key)
                handle.write(value)
        self._runs.append(path)
        self._buffer.clear()
        self.buffered_bytes = 0
        self.spill_count += 1

    def iter_sorted(self) -> Iterator[Tuple[bytes, bytes]]:
        """Stream pairs key-ascending, keeping only the last write per key.

        Consumes the sorter: the buffer is drained and run files are
        deleted as the iteration completes.
        """
        self._buffer.sort(key=lambda entry: (entry[0], entry[1]))
        sources: List[Iterator[Tuple[bytes, int, bytes]]] = [
            _iter_run(path) for path in self._runs
        ]
        sources.append(iter(self._buffer))
        merged = heapq.merge(*sources, key=lambda entry: (entry[0], entry[1]))
        pending: Optional[Tuple[bytes, bytes]] = None
        for key, _seq, value in merged:
            if pending is not None and pending[0] != key:
                yield pending
            pending = (key, value)
        if pending is not None:
            yield pending
        self._buffer.clear()
        self.buffered_bytes = 0
        self.close()

    def close(self) -> None:
        for path in self._runs:
            try:
                os.remove(path)
            except OSError:
                pass
        self._runs.clear()


class SpillPool:
    """Many sorters (one per namespace) under one shared byte budget."""

    def __init__(self, spill_dir: str, budget_bytes: int):
        self.spill_dir = spill_dir
        self.budget_bytes = budget_bytes
        self._sorters: Dict[str, SpillingSorter] = {}

    def sorter(self, namespace: str) -> SpillingSorter:
        sorter = self._sorters.get(namespace)
        if sorter is None:
            sorter = SpillingSorter(
                self.spill_dir, name=f"ns{len(self._sorters):04d}"
            )
            self._sorters[namespace] = sorter
        return sorter

    def add(self, namespace: str, key: bytes, value: bytes) -> None:
        self.sorter(namespace).add(key, value)
        while self.resident_bytes() > self.budget_bytes:
            largest = max(
                self._sorters.values(), key=lambda s: s.buffered_bytes
            )
            if largest.buffered_bytes == 0:
                break
            largest.spill()

    def resident_bytes(self) -> int:
        return sum(s.buffered_bytes for s in self._sorters.values())

    @property
    def spill_count(self) -> int:
        return sum(s.spill_count for s in self._sorters.values())

    def namespaces(self) -> List[str]:
        return sorted(self._sorters)

    def iter_namespace(self, namespace: str) -> Iterator[Tuple[bytes, bytes]]:
        sorter = self._sorters.get(namespace)
        if sorter is None:
            return iter(())
        return sorter.iter_sorted()

    def close(self) -> None:
        for sorter in self._sorters.values():
            sorter.close()
        self._sorters.clear()
