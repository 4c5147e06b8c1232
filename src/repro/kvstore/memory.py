"""In-memory ordered key/value map.

This is the record store inside every simulated storage node.  Keys are
arbitrary byte strings and the map supports the operations PIQL requires
from the underlying key/value store (Section 3 of the paper):

* point ``get`` / ``put`` / ``delete``,
* ``test_and_set`` (compare-and-swap) for uniqueness constraints,
* **range requests** over the byte-ordered key space, which PIQL relies on
  for index scans, and
* ``count_range``, used by the cardinality-constraint insertion protocol
  (Section 7.2).

The implementation keeps a plain ``dict`` for point operations beside a
:class:`SortedKeys` index that stays sorted as keys come and go: a new key
waits in a buffer that the next range operation folds in — one ``insort``
per key, or one sort when the buffer is large against the list (a bulk
load).  A write followed by a range therefore costs a bisect and a memmove,
not a pass over every key, bulk loading stays O(n log n), and point reads
stay O(1).

:func:`merge_slices` is the one chunked range merge over several sources:
the replicas of a range one tier up (``ReplicationManager.merged_range``)
and the runs of one LSM tree (``LsmTree.range``) both answer a limited
range through it.

A map knows nothing of who reads it.  The range memo one tier up
(``ReplicationManager.merged_range``) learns of changes from the replica
store's doors (:mod:`repro.replication.store`), not from the map, so a
map's content changes only through them or through a path that clears that
memo.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: One source's slice of a range: ``(key, stored value)`` pairs in scan order.
Slice = List[Tuple[bytes, Any]]


class SortedKeys:
    """Distinct byte keys, kept in byte order as they are added and removed.

    Callers own membership (a dict beside the index): ``add`` takes only keys
    that are absent, ``remove`` only keys that are present.  ``add`` is the
    ``append`` of a buffer that the next read folds into the sorted list, so
    a bulk load pays one C call per key and then one sort.
    """

    __slots__ = ("_keys", "_pending", "add")

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._pending: List[bytes] = []
        self.add = self._pending.append

    def remove(self, key: bytes) -> None:
        keys, at, _ = self.span(key, None)
        del keys[at]

    def span(
        self, start: Optional[bytes], end: Optional[bytes]
    ) -> Tuple[List[bytes], int, int]:
        """``(keys, lo, hi)``: every key in order, ``keys[lo:hi]`` in ``[start, end)``."""
        keys, pending = self._keys, self._pending
        if pending:
            if len(pending) ** 2 <= len(keys):
                # Few against many: a bisect and a memmove per key.
                for key in pending:
                    insort(keys, key)
            else:
                # A bulk load: one sort, under sqrt(n) compares per key.
                keys.extend(pending)
                keys.sort()
            pending.clear()
        lo = 0 if start is None else bisect_left(keys, start)
        hi = len(keys) if end is None else bisect_left(keys, end)
        return keys, lo, hi

    def clear(self) -> None:
        self._keys.clear()
        self._pending.clear()


def merge_slices(
    read: Callable[[Optional[bytes], Optional[bytes], Optional[int]], List[Slice]],
    resolve: Callable[[List[Slice]], Dict[bytes, Optional[bytes]]],
    start: Optional[bytes],
    end: Optional[bytes],
    limit: Optional[int],
    ascending: bool,
) -> List[Tuple[bytes, bytes]]:
    """The newest live ``(key, value)`` pairs of ``[start, end)`` across
    several sources, in scan order, at most ``limit`` of them.

    Chunked slice-and-resolve.  ``read(start, end, remaining)`` returns
    every source's slice of a range — at most ``remaining`` entries each,
    in scan order, deletes included — and ``resolve(slices)`` maps every key
    they hold to its newest value, ``None`` for a delete: each caller keeps
    its own rule for which copy is newest.  Keys are emitted up to the
    *horizon* — the least-advanced last key among the sources that filled
    their slice, past which some source has not been heard.  The limit
    applies after resolution, never per source: when deletes leave a pass
    short, the next one resumes just past the horizon with the remaining
    limit, so a slice that leads with deletes cannot starve the result.
    With ``limit=None`` one pass reads everything.
    """
    out: List[Tuple[bytes, bytes]] = []
    remaining = limit
    while remaining is None or remaining > 0:
        slices = read(start, end, remaining)
        newest = resolve(slices)
        horizon: Optional[bytes] = None
        for chunk in slices:
            if len(chunk) == remaining:
                last = chunk[-1][0]
                if horizon is None or (
                    last < horizon if ascending else last > horizon
                ):
                    horizon = last
        keys = sorted(newest)
        if horizon is not None:
            # Past the horizon a source whose slice stopped short may hold
            # a newer copy (or a delete) it has not shown yet.
            if ascending:
                del keys[bisect_right(keys, horizon):]
            else:
                del keys[: bisect_left(keys, horizon)]
        if not ascending:
            keys.reverse()
        for key in keys:
            value = newest[key]
            if value is not None:
                out.append((key, value))
                if len(out) == limit:
                    return out
        if horizon is None:
            break  # every source's slice ended inside its chunk
        remaining = limit - len(out)
        if ascending:
            start = horizon + b"\x00"
        else:
            end = horizon
    return out


def _hashable(key: bytes) -> bytes:
    """A ``bytearray`` key as the ``bytes`` it is stored under."""
    return bytes(key) if isinstance(key, bytearray) else key


class OrderedKVMap:
    """A byte-keyed map ordered by key, supporting range scans."""

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._index = SortedKeys()

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key`` or ``None``."""
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite the value stored under ``key``."""
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"keys must be bytes, got {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"values must be bytes, got {type(value).__name__}")
        key = bytes(key)
        if key not in self._data:
            self._index.add(key)
        self._data[key] = bytes(value)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; return ``True`` if it existed."""
        key = _hashable(key)
        if key in self._data:
            del self._data[key]
            self._index.remove(key)
            return True
        return False

    def test_and_set(
        self, key: bytes, expected: Optional[bytes], new_value: bytes
    ) -> bool:
        """Atomically set ``key`` to ``new_value`` iff its current value is ``expected``.

        ``expected=None`` means "the key must not exist" (insert-if-absent).
        Returns ``True`` on success.
        """
        key = _hashable(key)
        if self._data.get(key) != expected:
            return False
        self.put(key, new_value)
        return True

    def __contains__(self, key: bytes) -> bool:
        return _hashable(key) in self._data

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def range(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: Optional[int] = None,
        ascending: bool = True,
    ) -> List[Tuple[bytes, bytes]]:
        """Return up to ``limit`` ``(key, value)`` pairs with ``start <= key < end``.

        ``start=None`` means "from the smallest key"; ``end=None`` means
        "through the largest key".  ``ascending=False`` returns pairs in
        descending key order (the *end* of the range first), which the
        execution engine uses for ``ORDER BY ... DESC`` index scans.
        """
        keys, lo, hi = self._index.span(start, end)
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            # Bound the slice, not the copy: a descending read keeps the
            # *top* ``limit`` keys of the range.
            if ascending:
                hi = min(hi, lo + limit)
            else:
                lo = max(lo, hi - limit)
        if lo >= hi:
            return []
        selected = keys[lo:hi]
        if not ascending:
            selected.reverse()
        data = self._data
        return [(k, data[k]) for k in selected]

    def iter_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Lazily yield ``(key, value)`` pairs with ``start <= key < end``,
        in key order.

        Unlike :meth:`range` nothing is materialised, so a consumer that
        stops early (a merge honouring a LIMIT) does O(consumed) work.  The
        map must not be mutated while the iterator is live.
        """
        keys, lo, hi = self._index.span(start, end)
        for index in range(lo, hi):
            key = keys[index]
            yield key, self._data[key]

    def count_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        """Return the number of keys with ``start <= key < end``."""
        _, lo, hi = self._index.span(start, end)
        return max(0, hi - lo)

    def iter_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all items in key order (used by tests and bulk export)."""
        return self.iter_range()

    def clear(self) -> None:
        """Remove every entry."""
        self._data.clear()
        self._index.clear()
