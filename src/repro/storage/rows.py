"""Row (tuple) serialisation and key construction.

Rows are stored in the key/value store as JSON-encoded dictionaries keyed by
their order-preserving primary-key encoding.  Secondary index entries store
the serialised primary key as their value so that the execution engine can
dereference an index entry with a single point ``get`` (the "extra round
trip" of Section 5.1).

Deserialisation is the hottest CPU path of the serving loops (every fetched
record and every dereferenced index entry passes through it), so the
decoders here are memoized behind small bounded caches keyed by the payload
bytes.  The caches use a two-generation scheme — fill the young generation
up to capacity, then demote it wholesale — which keeps every operation O(1)
and makes concurrent access from the benchmark harness's threads safe under
the GIL (worst case a few extra decodes, never a wrong result).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..schema.ddl import IndexDefinition, Table
from ..schema.keys import encode_key
from .fulltext import tokenize

#: Per-generation capacity of the payload-decode caches.  Two generations
#: are live at once, so the worst-case footprint is twice this many entries.
ROW_CACHE_CAPACITY = 4096


class _TwoGenerationCache:
    """A bounded memo table with O(1) insert/lookup and coarse LRU-ish reuse."""

    __slots__ = ("young", "old", "hits", "misses")

    def __init__(self) -> None:
        self.young: Dict[bytes, Any] = {}
        self.old: Dict[bytes, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> Optional[Any]:
        value = self.young.get(key)
        if value is None:
            value = self.old.get(key)
            if value is None:
                self.misses += 1
                return None
        self.hits += 1
        return value

    def put(self, key: bytes, value: Any) -> None:
        if len(self.young) >= ROW_CACHE_CAPACITY:
            self.old = self.young
            self.young = {}
        self.young[key] = value

    def clear(self) -> None:
        self.young = {}
        self.old = {}
        self.hits = 0
        self.misses = 0


_row_cache = _TwoGenerationCache()
_pk_key_cache = _TwoGenerationCache()


def serialize_row(row: Dict[str, Any]) -> bytes:
    """Serialise a row dictionary to compact JSON bytes."""
    return json.dumps(row, separators=(",", ":"), sort_keys=True).encode("utf-8")


def deserialize_row(data: bytes) -> Dict[str, Any]:
    """Inverse of :func:`serialize_row` (memoized on the payload bytes).

    Cache hits return a shallow copy so callers may mutate the row dict
    freely; the column values themselves are shared, which is safe for the
    scalar types the engine stores.
    """
    cached = _row_cache.get(data)
    if cached is not None:
        return dict(cached)
    row = json.loads(data.decode("utf-8"))
    _row_cache.put(data, row)
    return dict(row)


def cached_pk_key(payload: bytes) -> bytes:
    """Record key referenced by a secondary-index entry payload.

    Equivalent to ``pk_key(deserialize_pk(payload))`` but interned on the
    payload bytes: dereferencing hot index entries skips both the JSON
    decode and the key re-encoding.  The returned bytes are immutable, so
    the cache can hand out the same object forever.
    """
    key = _pk_key_cache.get(payload)
    if key is None:
        key = encode_key(json.loads(payload.decode("utf-8")))
        _pk_key_cache.put(payload, key)
    return key


def row_cache_stats() -> Dict[str, Tuple[int, int]]:
    """``{"rows": (hits, misses), "pk_keys": (hits, misses)}`` (diagnostics)."""
    return {
        "rows": (_row_cache.hits, _row_cache.misses),
        "pk_keys": (_pk_key_cache.hits, _pk_key_cache.misses),
    }


def clear_row_caches() -> None:
    """Drop both payload-decode caches (tests and long-lived processes)."""
    _row_cache.clear()
    _pk_key_cache.clear()


def serialize_pk(values: Sequence[Any]) -> bytes:
    """Serialise primary-key values for storage in index-entry payloads."""
    return json.dumps(list(values), separators=(",", ":")).encode("utf-8")


def deserialize_pk(data: bytes) -> List[Any]:
    """Inverse of :func:`serialize_pk`."""
    return json.loads(data.decode("utf-8"))


def record_key(table: Table, row: Dict[str, Any]) -> bytes:
    """The key under which ``row`` is stored in the table's namespace."""
    return encode_key(table.primary_key_values(row))


def pk_key(values: Sequence[Any]) -> bytes:
    """Encode explicit primary-key values into a record key."""
    return encode_key(list(values))


def index_entries(index: IndexDefinition, table: Table, row: Dict[str, Any]):
    """Yield ``(key, value)`` pairs this row contributes to ``index``.

    A tokenised column contributes one entry per distinct token of its
    value; other columns contribute their value directly.  The entry key is
    the index column values followed by the primary key (making entries
    unique); the value is the serialised primary key for dereferencing.
    """
    pk_values = table.primary_key_values(row)
    payload = serialize_pk(pk_values)

    def expand(position: int, prefix: List[Any]):
        if position == len(index.columns):
            yield encode_key(prefix + pk_values), payload
            return
        column = index.columns[position]
        value = row.get(column.name)
        if column.tokenized:
            tokens = tokenize(value) if isinstance(value, str) else []
            if not tokens:
                return
            for token in tokens:
                yield from expand(position + 1, prefix + [token])
        else:
            yield from expand(position + 1, prefix + [value])

    yield from expand(0, [])
