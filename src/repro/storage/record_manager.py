"""Record manager: CRUD over base records plus index and constraint maintenance.

PIQL uses the key/value store purely as a record manager (Section 3); all
higher-level functionality lives in this client-side library.  The write
protocols follow Section 7.2:

* **Secondary index maintenance** — new index entries are written *before*
  the base record, and stale entries are deleted *after* it.  A crash can
  therefore leave dangling index pointers (garbage-collectable) but never an
  index that misses a live record.
* **Cardinality constraints** — after inserting a record the library counts
  the rows sharing the constrained column values with a ``count_range``
  request; if the constraint is exceeded the record is removed again and the
  insert fails.  Concurrent inserts may transiently overshoot, exactly as in
  the paper's prototype.
* **Uniqueness** (primary keys) — enforced with ``test_and_set``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import (
    CardinalityViolationError,
    SchemaError,
    UniquenessViolationError,
)
from ..kvstore.client import StorageClient
from ..kvstore.cluster import KeyValueCluster
from ..schema.catalog import Catalog
from ..schema.ddl import CardinalityLimit, IndexColumn, IndexDefinition, Table
from ..schema.keys import prefix_range
from .rows import (
    deserialize_row,
    index_entries,
    pk_key,
    record_key,
    serialize_row,
)


class RecordManager:
    """Client-side CRUD layer over the simulated key/value store."""

    def __init__(self, catalog: Catalog, client: StorageClient, views=None):
        self.catalog = catalog
        self.client = client
        #: Optional :class:`~repro.views.maintenance.ViewMaintenanceEngine`.
        #: When set, every successful write additionally applies its delta to
        #: the materialized views driven by the written table, through this
        #: same client (so maintenance is charged to the triggering write).
        self.views = views

    def _view_engine(self, table: Table):
        """The maintenance engine, if any view is driven by ``table``."""
        if self.views is not None and self.views.relevant_views(table.name):
            return self.views
        return None

    @staticmethod
    def _reject_view_backing_writes(table: Table) -> None:
        """Backing tables hold derived state with hidden merge fields; only
        the maintenance engine may write them — direct DML would corrupt
        the aggregates and crash later deltas."""
        if table.backing_view is not None:
            raise SchemaError(
                f"table {table.name!r} backs materialized view "
                f"{table.backing_view!r} and cannot be written directly; "
                "write to the view's driving table instead"
            )

    # ------------------------------------------------------------------
    # Namespace / index setup
    # ------------------------------------------------------------------
    def create_table_storage(self, table: Table) -> None:
        """Create the record namespace for ``table`` (idempotent)."""
        self.client.cluster.create_namespace(table.namespace)

    def create_index_storage(self, index: IndexDefinition) -> None:
        """Create the namespace for a secondary index (idempotent)."""
        self.client.cluster.create_namespace(index.namespace)

    def constraint_index(self, table: Table, limit: CardinalityLimit) -> Optional[IndexDefinition]:
        """The index used to count rows for a cardinality constraint.

        Returns ``None`` when the constraint columns are a prefix of the
        primary key (the base records themselves can be counted).
        """
        prefix = list(table.primary_key[: len(limit.columns)])
        if sorted(prefix) == sorted(limit.columns):
            return None
        columns = [IndexColumn(c) for c in limit.columns]
        existing = self.catalog.find_index(table.name, columns)
        if existing is not None:
            return existing
        full = list(columns) + [
            IndexColumn(c) for c in table.primary_key if c not in limit.columns
        ]
        return IndexDefinition(
            name=Catalog.index_name(table.name, full),
            table=table.name,
            columns=tuple(full),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, table_name: str, pk_values: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Fetch one record by primary key, or ``None``."""
        table = self.catalog.table(table_name)
        data = self.client.get(table.namespace, pk_key(pk_values))
        return deserialize_row(data) if data is not None else None

    def scan(self, table_name: str, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Full table scan (not scale-independent; used by tests and tools)."""
        table = self.catalog.table(table_name)
        pairs = self.client.get_range(table.namespace, None, None, limit=limit)
        return [deserialize_row(value) for _, value in pairs]

    def count(self, table_name: str) -> int:
        """Total number of records in a table (tests and tools only)."""
        table = self.catalog.table(table_name)
        return self.client.cluster.namespace_size(table.namespace)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @contextmanager
    def _write_span(self, operation: str, table_name: str) -> Iterator[None]:
        """One ``write`` span around a DML call, when tracing is enabled.

        Everything the write triggers — index maintenance puts, hinted
        handoffs, read repairs, materialized-view deltas — nests under this
        span, so collateral traffic is attributed to the write that caused
        it.
        """
        tracer = self.client.tracer
        if tracer is None:
            yield None
            return
        span = tracer.start_span(
            f"{operation} {table_name}", "write",
            operation=operation, table=table_name,
        )
        try:
            yield None
        finally:
            tracer.end_span(span)

    def insert(
        self, table_name: str, row: Dict[str, Any], upsert: bool = False
    ) -> Dict[str, Any]:
        """Insert one row, maintaining indexes, views, and constraints."""
        with self._write_span("insert", table_name):
            return self._insert(table_name, row, upsert)

    def _insert(
        self, table_name: str, row: Dict[str, Any], upsert: bool
    ) -> Dict[str, Any]:
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        validated = table.validate_row(row)
        key = record_key(table, validated)
        payload = serialize_row(validated)

        # 0. When this table drives materialized views, an overwriting put
        #    must read the previous row to retract its view contribution;
        #    with the old row in hand, stale index entries it left behind
        #    are cleaned up too.  Tables without views keep the legacy
        #    upsert behaviour — a changed indexed value leaves a dangling
        #    (garbage-collectable) entry, per Section 7.2's crash semantics
        #    — because reading the old row on every upsert would charge
        #    every existing write path for a rarely-needed cleanup.
        views = self._view_engine(table)
        indexes = self.catalog.indexes_for_table(table.name)
        old_row: Optional[Dict[str, Any]] = None
        if upsert and views is not None:
            old_payload = self.client.get(table.namespace, key)
            old_row = deserialize_row(old_payload) if old_payload is not None else None

        # 1. Write the new secondary index entries first (Section 7.2).
        for index in indexes:
            namespace = index.namespace
            for entry_key, entry_value in index_entries(index, table, validated):
                self.client.put(namespace, entry_key, entry_value)

        # 2. Write (or conditionally write) the base record.
        if not upsert:
            inserted = self.client.test_and_set(table.namespace, key, None, payload)
            if not inserted:
                # Undo the entries written in step 1 — but only those the
                # surviving row does not share: when the duplicate's indexed
                # values equal the survivor's, the entry keys coincide and a
                # blind delete would strip the live row out of its indexes.
                survivor_payload = self.client.get(table.namespace, key)
                if survivor_payload is not None:
                    self._delete_stale_entries(
                        table, validated, deserialize_row(survivor_payload)
                    )
                else:
                    self._remove_index_entries(table, validated)
                raise UniquenessViolationError(
                    f"primary key {tuple(table.primary_key_values(validated))!r} "
                    f"already exists in table {table.name!r}"
                )
        else:
            self.client.put(table.namespace, key, payload)
            if old_row is not None:
                # Overwrote an existing row: its entries for changed indexed
                # values are now stale (same ordering rule as update()).
                self._delete_stale_entries(table, old_row, validated)

        # 2b. Apply the delta to materialized views (before the constraint
        #     check: a violation's undo path retracts it again via delete).
        if views is not None:
            if old_row is not None:
                views.on_update(table.name, old_row, validated)
            else:
                views.on_insert(table.name, validated)

        # 3. Check cardinality constraints; undo the insert on violation.
        for limit in table.cardinality_limits:
            if not self._within_cardinality(table, limit, validated):
                self.delete(table.name, table.primary_key_values(validated))
                raise CardinalityViolationError(
                    f"inserting into {table.name!r} would exceed "
                    f"CARDINALITY LIMIT {limit.limit} on "
                    f"({', '.join(limit.columns)})",
                    constraint=",".join(limit.columns),
                )
        return validated

    def update(self, table_name: str, row: Dict[str, Any]) -> Dict[str, Any]:
        """Replace the record with the same primary key as ``row``.

        Index entries whose key is unchanged by the update are neither
        rewritten nor deleted — an update that leaves every indexed value
        alone costs no index RPCs at all.  (The entry *value* is the
        serialised primary key, which an update cannot change.)  The write
        order for genuinely changed entries stays crash-safe: new entries
        before the base record, stale entries deleted after it.
        """
        with self._write_span("update", table_name):
            return self._update(table_name, row)

    def _update(self, table_name: str, row: Dict[str, Any]) -> Dict[str, Any]:
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        validated = table.validate_row(row)
        key = record_key(table, validated)
        old_payload = self.client.get(table.namespace, key)
        old_row = deserialize_row(old_payload) if old_payload is not None else None

        stale: List[tuple] = []
        for index in self.catalog.indexes_for_table(table.name):
            namespace = index.namespace
            new_entries = dict(index_entries(index, table, validated))
            old_keys = (
                {k for k, _ in index_entries(index, table, old_row)}
                if old_row is not None
                else set()
            )
            for entry_key, entry_value in new_entries.items():
                if entry_key not in old_keys:
                    self.client.put(namespace, entry_key, entry_value)
            stale.extend(
                (namespace, entry_key)
                for entry_key in old_keys
                if entry_key not in new_entries
            )
        self.client.put(table.namespace, key, serialize_row(validated))
        for namespace, entry_key in stale:
            self.client.delete(namespace, entry_key)
        views = self._view_engine(table)
        if views is not None:
            # The engine itself skips no-op deltas (unchanged grouped and
            # aggregated values contribute nothing).
            if old_row is not None:
                views.on_update(table.name, old_row, validated)
            else:
                views.on_insert(table.name, validated)
        return validated

    def delete(self, table_name: str, pk_values: Sequence[Any]) -> bool:
        """Delete one record by primary key; returns whether it existed."""
        with self._write_span("delete", table_name):
            return self._delete(table_name, pk_values)

    def _delete(self, table_name: str, pk_values: Sequence[Any]) -> bool:
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        key = pk_key(list(pk_values))
        payload = self.client.get(table.namespace, key)
        existed = self.client.delete(table.namespace, key)
        if payload is not None:
            row = deserialize_row(payload)
            self._remove_index_entries(table, row)
            views = self._view_engine(table)
            if views is not None:
                views.on_delete(table.name, row)
        return existed

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, table_name: str, rows: Iterable[Dict[str, Any]]) -> int:
        """Load many rows without charging simulated latency or checking constraints.

        Mirrors the paper's experimental methodology, which bulk loads each
        benchmark dataset before measuring.  Returns the number of rows
        loaded.  Views the table drives are maintained row by row, on the
        latency-free load path.
        """
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        cluster: KeyValueCluster = self.client.cluster
        indexes = self.catalog.indexes_for_table(table.name)
        views = self._view_engine(table)
        count = 0
        for row in rows:
            validated = table.validate_row(row)
            cluster.load(
                table.namespace, record_key(table, validated), serialize_row(validated)
            )
            for index in indexes:
                namespace = index.namespace
                for entry_key, entry_value in index_entries(index, table, validated):
                    cluster.load(namespace, entry_key, entry_value)
            if views is not None:
                views.on_insert(table.name, validated, billed=False)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _within_cardinality(
        self, table: Table, limit: CardinalityLimit, row: Dict[str, Any]
    ) -> bool:
        values = [row[c] for c in limit.columns]
        index = self.constraint_index(table, limit)
        if index is None:
            namespace = table.namespace
            start, end = prefix_range(values)
        else:
            if not self.catalog.has_index(index.name):
                raise SchemaError(
                    f"cardinality constraint on {table.name}"
                    f"({', '.join(limit.columns)}) requires index {index.name!r}; "
                    "create tables through PiqlDatabase so constraint indexes "
                    "are provisioned automatically"
                )
            namespace = index.namespace
            start, end = prefix_range(values)
        count = self.client.count_range(namespace, start, end)
        return count <= limit.limit

    def _remove_index_entries(self, table: Table, row: Dict[str, Any]) -> None:
        for index in self.catalog.indexes_for_table(table.name):
            namespace = index.namespace
            for entry_key, _ in index_entries(index, table, row):
                self.client.delete(namespace, entry_key)

    def _delete_stale_entries(
        self, table: Table, old_row: Dict[str, Any], new_row: Dict[str, Any]
    ) -> None:
        for index in self.catalog.indexes_for_table(table.name):
            namespace = index.namespace
            new_keys = {key for key, _ in index_entries(index, table, new_row)}
            for entry_key, _ in index_entries(index, table, old_row):
                if entry_key not in new_keys:
                    self.client.delete(namespace, entry_key)
