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

The implementation keeps a plain ``dict`` for point operations and a sorted
list of keys that is rebuilt lazily before the first range operation after
a mutation.  This makes bulk loading (millions of puts followed by reads)
O(n log n) instead of O(n^2), while point reads stay O(1).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple


class OrderedKVMap:
    """A byte-keyed map ordered by key, supporting range scans."""

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._sorted_keys: List[bytes] = []
        self._dirty = False

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
        if key not in self._data:
            self._dirty = True
        self._data[bytes(key)] = bytes(value)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; return ``True`` if it existed."""
        if key in self._data:
            del self._data[key]
            self._dirty = True
            return True
        return False

    def test_and_set(
        self, key: bytes, expected: Optional[bytes], new_value: bytes
    ) -> bool:
        """Atomically set ``key`` to ``new_value`` iff its current value is ``expected``.

        ``expected=None`` means "the key must not exist" (insert-if-absent).
        Returns ``True`` on success.
        """
        current = self._data.get(key)
        if current != expected:
            return False
        self.put(key, new_value)
        return True

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def _ensure_sorted(self) -> None:
        if self._dirty or len(self._sorted_keys) != len(self._data):
            self._sorted_keys = sorted(self._data.keys())
            self._dirty = False

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
        self._ensure_sorted()
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
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
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Lazily yield ``(key, value)`` pairs with ``start <= key < end``.

        Unlike :meth:`range` nothing is materialised, so a consumer that
        stops early (a merge honouring a LIMIT) does O(consumed) work.  The
        map must not be mutated while the iterator is live.
        """
        self._ensure_sorted()
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        indices = range(lo, hi) if ascending else range(hi - 1, lo - 1, -1)
        for index in indices:
            key = keys[index]
            yield key, self._data[key]

    def count_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        """Return the number of keys with ``start <= key < end``."""
        self._ensure_sorted()
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        return max(0, hi - lo)

    def iter_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all items in key order (used by tests and bulk export)."""
        self._ensure_sorted()
        for key in self._sorted_keys:
            yield key, self._data[key]

    def clear(self) -> None:
        """Remove every entry."""
        self._data.clear()
        self._sorted_keys = []
        self._dirty = False
