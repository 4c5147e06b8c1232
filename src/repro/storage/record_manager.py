"""Record manager: CRUD over base records plus index and constraint maintenance.

PIQL uses the key/value store purely as a record manager (Section 3); all
higher-level functionality lives in this client-side library.  Writes come
in batches of rows of one table (:meth:`RecordManager.insert_many`,
:meth:`RecordManager.delete_many`; a single-row write is a batch of one),
and each namespace a batch touches is written with one batched request
(``StorageClient.put_many`` / ``delete_many``: one RPC per replica node).
The write protocols follow Section 7.2, per batch:

* **Secondary index maintenance** — the batch's new index entries are
  written *before* its base records, one batch per index namespace, and
  stale entries are deleted *after* them.  A crash can therefore leave
  dangling index pointers (garbage-collectable) but never an index that
  misses a live record.
* **Cardinality constraints** — after writing the records the library
  counts the rows sharing each distinct constrained value of the batch with
  one ``count_range`` request; if the constraint is exceeded that value's
  rows of the batch are removed again and the insert fails.  Concurrent
  inserts may transiently overshoot, exactly as in the paper's prototype.
* **Uniqueness** (primary keys) — enforced with one ``test_and_set`` per
  row.
* **Deletes** read the old rows first (one ``multi_get``) only when the
  table has an index or drives a materialized view, whose entries and
  contributions must be retracted; otherwise the delete is one request.
* **Views** — an upsert batch on a view-driving table reads its old rows
  with one ``multi_get``; per-row view deltas follow the base writes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    CardinalityViolationError,
    ExecutionError,
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
        """Insert one row, maintaining indexes, views, and constraints: the
        one-row case of :meth:`insert_many`."""
        return self.insert_many(table_name, [row], upsert)[0]

    def insert_many(
        self, table_name: str, rows: Iterable[Dict[str, Any]], upsert: bool = False
    ) -> List[Dict[str, Any]]:
        """Insert rows of one table, writing each namespace once per batch.

        Follows the module's write protocols per batch: the new index
        entries as one batch per index namespace, then the base records
        (one batch for an upsert, one ``test_and_set`` per row otherwise),
        then stale entries, view deltas, and one cardinality count per
        distinct constrained value.  A batch is not atomic: a row that
        fails its uniqueness check leaves the rows before it inserted and
        the rows from it on unwritten.  Returns the validated rows.
        """
        rows = list(rows)
        if not rows:
            return []
        with self._write_span("insert", table_name):
            return self._insert(table_name, rows, upsert)

    def _insert(
        self, table_name: str, rows: List[Dict[str, Any]], upsert: bool
    ) -> List[Dict[str, Any]]:
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        validated = [table.validate_row(row) for row in rows]
        keys = [record_key(table, row) for row in validated]
        self._require_distinct(table, keys)

        # 0. When this table drives materialized views, an overwriting put
        #    must read the previous rows to retract their view contribution;
        #    with the old rows in hand, stale index entries they left behind
        #    are cleaned up too.  Tables without views keep the legacy
        #    upsert behaviour — a changed indexed value leaves a dangling
        #    (garbage-collectable) entry, per Section 7.2's crash semantics
        #    — because reading the old row on every upsert would charge
        #    every existing write path for a rarely-needed cleanup.
        views = self._view_engine(table)
        old_rows: List[Optional[Dict[str, Any]]] = [None] * len(keys)
        if upsert and views is not None:
            old_rows = [
                deserialize_row(payload) if payload is not None else None
                for payload in self._read(table.namespace, keys)
            ]

        # 1. Write the new secondary index entries first (Section 7.2).
        for index in self.catalog.indexes_for_table(table.name):
            self.client.put_many(index.namespace, [
                entry for row in validated
                for entry in index_entries(index, table, row)
            ])

        # 2. Write (or conditionally write) the base records.
        failure: Optional[UniquenessViolationError] = None
        if not upsert:
            for position, (key, row) in enumerate(zip(keys, validated)):
                if self.client.test_and_set(
                    table.namespace, key, None, serialize_row(row)
                ):
                    continue
                # Undo the entries written in step 1 for this row and the
                # unwritten rows after it.
                for unwritten_key, unwritten in zip(
                    keys[position:], validated[position:]
                ):
                    self._undo_entries(table, unwritten_key, unwritten)
                failure = UniquenessViolationError(
                    f"primary key {tuple(table.primary_key_values(row))!r} "
                    f"already exists in table {table.name!r}"
                )
                del validated[position:]
                break
        else:
            self.client.put_many(table.namespace, [
                (key, serialize_row(row)) for key, row in zip(keys, validated)
            ])
            # Overwritten rows: their entries for changed indexed values are
            # now stale (same ordering rule as update()).
            self._delete_stale_entries(table, [
                (old_row, row)
                for old_row, row in zip(old_rows, validated)
                if old_row is not None
            ])

        # 2b. Apply the deltas to materialized views (before the constraint
        #     check: a violation's undo path retracts them again via delete).
        if views is not None:
            for old_row, row in zip(old_rows, validated):
                if old_row is not None:
                    views.on_update(table.name, old_row, row)
                else:
                    views.on_insert(table.name, row)

        # 3. Check cardinality constraints once per distinct constrained
        #    value; on a violation, undo that value's rows of the batch.
        for limit in table.cardinality_limits:
            groups: Dict[tuple, List[Dict[str, Any]]] = {}
            for row in validated:
                groups.setdefault(
                    tuple(row[c] for c in limit.columns), []
                ).append(row)
            for group in groups.values():
                if not self._within_cardinality(table, limit, group[0]):
                    self.delete_many(
                        table.name,
                        [table.primary_key_values(row) for row in group],
                    )
                    raise CardinalityViolationError(
                        f"inserting into {table.name!r} would exceed "
                        f"CARDINALITY LIMIT {limit.limit} on "
                        f"({', '.join(limit.columns)})",
                        constraint=",".join(limit.columns),
                    )
        if failure is not None:
            raise failure
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

        for index in self.catalog.indexes_for_table(table.name):
            old_keys = (
                {k for k, _ in index_entries(index, table, old_row)}
                if old_row is not None
                else set()
            )
            self.client.put_many(index.namespace, [
                entry for entry in index_entries(index, table, validated)
                if entry[0] not in old_keys
            ])
        self.client.put(table.namespace, key, serialize_row(validated))
        if old_row is not None:
            self._delete_stale_entries(table, [(old_row, validated)])
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
        """Delete one record by primary key; returns whether it existed:
        the one-row case of :meth:`delete_many`."""
        return self.delete_many(table_name, [pk_values])[0]

    def delete_many(
        self, table_name: str, pk_values: Iterable[Sequence[Any]]
    ) -> List[bool]:
        """Delete records of one table by primary key, writing each
        namespace once per batch; returns per key whether it existed.

        The old rows are read (one ``get``, or one ``multi_get`` for several
        keys) only when the table has an index or drives a view — their
        entries and view contributions must go too.  Otherwise the delete's
        own reply says which keys existed, and the batch is one RPC.
        """
        keys = [pk_key(list(values)) for values in pk_values]
        if not keys:
            return []
        with self._write_span("delete", table_name):
            return self._delete(table_name, keys)

    def _delete(self, table_name: str, keys: List[bytes]) -> List[bool]:
        table = self.catalog.table(table_name)
        self._reject_view_backing_writes(table)
        self._require_distinct(table, keys)
        views = self._view_engine(table)
        if views is None and not self.catalog.indexes_for_table(table.name):
            return self.client.delete_many(table.namespace, keys)
        rows = [
            deserialize_row(payload)
            for payload in self._read(table.namespace, keys)
            if payload is not None
        ]
        existed = self.client.delete_many(table.namespace, keys)
        self._delete_stale_entries(table, [(row, None) for row in rows])
        if views is not None:
            for row in rows:
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

    def _read(self, namespace: str, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Old records of a batch: one ``multi_get``, or for one key the
        ``get`` a single-row write always made (a one-key ``multi_get``
        draws the fault plane differently and names another span)."""
        if len(keys) == 1:
            return [self.client.get(namespace, keys[0])]
        return self.client.multi_get(namespace, keys)

    @staticmethod
    def _require_distinct(table: Table, keys: List[bytes]) -> None:
        """Refuse a batch that names one record twice: its old row, view
        delta and existence would each be read for the wrong write."""
        if len(set(keys)) != len(keys):
            raise ExecutionError(
                f"a batch on table {table.name!r} repeats a primary key"
            )

    def _undo_entries(self, table: Table, key: bytes, row: Dict[str, Any]) -> None:
        """Remove the index entries a row that was never written left
        behind — but only those the surviving row at its key does not
        share: when a duplicate's indexed values equal the survivor's, the
        entry keys coincide and a blind delete would strip the live row out
        of its indexes."""
        survivor = self.client.get(table.namespace, key)
        self._delete_stale_entries(table, [(
            row, deserialize_row(survivor) if survivor is not None else None,
        )])

    def _delete_stale_entries(
        self,
        table: Table,
        changes: Sequence[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]],
    ) -> None:
        """Delete the index entries each ``(old row, new row)`` change leaves
        stale — every entry of the old row that the new one (``None``: no
        row) lacks — as one batch per index namespace."""
        if not changes:
            return
        for index in self.catalog.indexes_for_table(table.name):
            stale: List[bytes] = []
            for old_row, new_row in changes:
                new_keys = (
                    {key for key, _ in index_entries(index, table, new_row)}
                    if new_row is not None
                    else set()
                )
                stale.extend(
                    entry_key
                    for entry_key, _ in index_entries(index, table, old_row)
                    if entry_key not in new_keys
                )
            self.client.delete_many(index.namespace, stale)
