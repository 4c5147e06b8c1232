"""Client-side record manager, secondary indexes, and full-text tokenisation."""

from .fulltext import query_token, tokenize
from .record_manager import RecordManager
from .rows import (
    deserialize_pk,
    deserialize_row,
    index_entries,
    pk_key,
    record_key,
    serialize_pk,
    serialize_row,
)

__all__ = [
    "RecordManager",
    "deserialize_pk",
    "deserialize_row",
    "index_entries",
    "pk_key",
    "query_token",
    "record_key",
    "serialize_pk",
    "serialize_row",
    "tokenize",
]
