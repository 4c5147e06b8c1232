"""Record manager: CRUD over base records plus index and constraint maintenance.

PIQL uses the key/value store purely as a record manager (Section 3); all
higher-level functionality lives in this client-side library.  Writes come
in batches of rows of one table (:meth:`RecordManager.insert_many`,
:meth:`RecordManager.delete_many`; a single-row write is a batch of one),
and each namespace a batch touches is written with one batched request
(``StorageClient.put_many`` / ``delete_many``: one RPC per replica node).

Every DML call — insert, upsert, update, delete, and the undo of a refused
one — is a list of ``(old row, new row)`` changes run through one body,
:meth:`RecordManager._write`, in Section 7.2's order:

* **Secondary index maintenance** — the entries a change's new row has and
  its old row lacks are written *before* the base records, one batch per
  index namespace, and the entries the old row has and the new one lacks
  are deleted *after* them.  A crash can therefore leave dangling index
  pointers (garbage-collectable) but never an index that misses a live
  record.
* **Uniqueness** (primary keys) — a plain insert writes its records with
  one ``test_and_set`` per row; an upsert or update with one ``put_many``,
  a delete with one ``delete_many``.
* **Views** — each change's delta follows the base writes.
* **Cardinality constraints** — after the body, an insert or update counts
  the rows of each distinct constrained value it adds a row to with one
  ``count_range``; if the constraint is exceeded, the call's changes are
  run back through the body reversed (a known old row is restored, a new
  row deleted) and the write fails.  Concurrent writes may transiently
  overshoot, exactly as in the paper's prototype.

The old rows are read by the caller, and only where something needs them:
a delete reads (one ``multi_get``) when the table has an index or drives a
materialized view, an upsert when the table drives a view, and an update
always (one ``get``).  A plain upsert on a table without a view reads
nothing: its old rows are unknown, so a changed indexed value leaves a
dangling entry and a refused overwrite deletes the row.
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

Row = Dict[str, Any]
#: One record's write: ``(old row, new row)``, ``None`` for no row (or, as
#: an old row, one the caller did not read).
Change = Tuple[Optional[Row], Optional[Row]]


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

    def _writable(self, table_name: str) -> Table:
        """The table a DML call names.  Backing tables hold derived state
        with hidden merge fields; only the maintenance engine may write
        them — direct DML would corrupt the aggregates and crash later
        deltas."""
        table = self.catalog.table(table_name)
        if table.backing_view is not None:
            raise SchemaError(
                f"table {table.name!r} backs materialized view "
                f"{table.backing_view!r} and cannot be written directly; "
                "write to the view's driving table instead"
            )
        return table

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

        The records go out as one ``test_and_set`` per row, or for an upsert
        as one ``put_many``; then one cardinality count per distinct
        constrained value the batch adds a row to.  An upsert reads the rows
        it overwrites only when the table drives a view.  A batch is not
        atomic: a row that fails its uniqueness check leaves the rows before
        it inserted and the rows from it on unwritten.  Returns the
        validated rows.
        """
        rows = list(rows)
        if not rows:
            return []
        with self._write_span("insert", table_name):
            table = self._writable(table_name)
            validated = [table.validate_row(row) for row in rows]
            keys = [record_key(table, row) for row in validated]
            self._require_distinct(table, keys)
            old_rows: List[Optional[Row]] = [None] * len(keys)
            if upsert and self._view_engine(table) is not None:
                old_rows = self._old_rows(table, keys)
            changes = list(zip(old_rows, validated))
            written = len(self._write(
                table, keys, changes, "put_many" if upsert else "test_and_set"
            ))
            self._enforce_limits(table, keys[:written], changes[:written])
            if written < len(validated):
                raise UniquenessViolationError(
                    f"primary key "
                    f"{tuple(table.primary_key_values(validated[written]))!r} "
                    f"already exists in table {table.name!r}"
                )
            return validated

    def update(self, table_name: str, row: Dict[str, Any]) -> Dict[str, Any]:
        """Replace the record with the same primary key as ``row``.

        Reads the old row (one ``get``), so index entries whose key is
        unchanged are neither rewritten nor deleted — an update that leaves
        every indexed value alone costs the ``get`` and the ``put`` — and
        enforces every ``CARDINALITY LIMIT`` the new row could grow,
        restoring the old row when one is exceeded.
        """
        with self._write_span("update", table_name):
            table = self._writable(table_name)
            validated = table.validate_row(row)
            keys = [record_key(table, validated)]
            changes = list(zip(self._old_rows(table, keys), [validated]))
            self._write(table, keys, changes, "put_many")
            self._enforce_limits(table, keys, changes)
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
            table = self._writable(table_name)
            self._require_distinct(table, keys)
            old_rows: List[Optional[Row]] = [None] * len(keys)
            if self._view_engine(table) is not None or \
                    self.catalog.indexes_for_table(table.name):
                old_rows = self._old_rows(table, keys)
            return self._write(
                table, keys, [(old, None) for old in old_rows], "delete_many"
            )

    def _write(
        self, table: Table, keys: List[bytes], changes: List[Change], verb: str
    ) -> List[bool]:
        """The write body: apply ``changes`` (one per record key) in
        Section 7.2's order.

        ``verb`` names the record request: ``"test_and_set"`` (one per row,
        expecting no record), ``"put_many"`` or ``"delete_many"``.  Returns
        one flag per record written: whether it existed (``delete_many``),
        else ``True``.  A refused ``test_and_set`` stops the batch there:
        the refused row and the rows after it are not written, their index
        entries are undone, and they get no flag.
        """
        indexes = self.catalog.indexes_for_table(table.name)
        # 1. The entries the new rows gain, before the records.
        for index in indexes:
            self.client.put_many(index.namespace, [
                entry for old, new in changes
                for entry in _entries_only_in(index, table, new, old)
            ])
        # 2. The records.
        if verb == "delete_many":
            written = self.client.delete_many(table.namespace, keys)
        elif verb == "put_many":
            self.client.put_many(table.namespace, [
                (key, serialize_row(new)) for key, (_, new) in zip(keys, changes)
            ])
            written = [True] * len(keys)
        else:
            written = []
            for key, (_, new) in zip(keys, changes):
                if not self.client.test_and_set(
                    table.namespace, key, None, serialize_row(new)
                ):
                    for unwritten_key, (_, unwritten) in zip(
                        keys[len(written):], changes[len(written):]
                    ):
                        self._undo_entries(table, unwritten_key, unwritten)
                    changes = changes[:len(written)]
                    break
                written.append(True)
        # 3. The entries the old rows lose, after the records.
        self._delete_stale_entries(table, changes)
        # 4. The view deltas.
        views = self._view_engine(table)
        if views is not None:
            for old, new in changes:
                if old is not None or new is not None:
                    views.apply(table.name, old, new)
        return written

    def _enforce_limits(
        self, table: Table, keys: List[bytes], changes: List[Change]
    ) -> None:
        """Count every distinct constrained value that some change adds a
        row to (its old row is unknown, or held another value), once each.
        At the first value over its limit, every change runs back through
        the body reversed — a known old row is put back, a new row deleted —
        and the write fails.  Undoing only that value's changes would not
        do: a row put back returns to a value already counted, which it can
        push over the limit."""
        for limit in table.cardinality_limits:
            groups: Dict[tuple, Row] = {}
            for old, new in changes:
                value = tuple(new[c] for c in limit.columns)
                if old is None or tuple(old[c] for c in limit.columns) != value:
                    groups.setdefault(value, new)
            for new in groups.values():
                if self._within_cardinality(table, limit, new):
                    continue
                restore = [i for i, (old, _) in enumerate(changes) if old is not None]
                delete = [i for i, (old, _) in enumerate(changes) if old is None]
                for verb, undo in (("put_many", restore), ("delete_many", delete)):
                    if undo:
                        self._write(
                            table, [keys[i] for i in undo],
                            [changes[i][::-1] for i in undo], verb,
                        )
                raise CardinalityViolationError(
                    f"writing {table.name!r} would exceed "
                    f"CARDINALITY LIMIT {limit.limit} on "
                    f"({', '.join(limit.columns)})",
                    constraint=",".join(limit.columns),
                )

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
        table = self._writable(table_name)
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
                views.apply(table.name, None, validated, billed=False)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _within_cardinality(
        self, table: Table, limit: CardinalityLimit, row: Dict[str, Any]
    ) -> bool:
        namespace = table.namespace
        index = self.constraint_index(table, limit)
        if index is not None:
            if not self.catalog.has_index(index.name):
                raise SchemaError(
                    f"cardinality constraint on {table.name}"
                    f"({', '.join(limit.columns)}) requires index {index.name!r}; "
                    "create tables through PiqlDatabase so constraint indexes "
                    "are provisioned automatically"
                )
            namespace = index.namespace
        start, end = prefix_range([row[c] for c in limit.columns])
        return self.client.count_range(namespace, start, end) <= limit.limit

    def _old_rows(self, table: Table, keys: Sequence[bytes]) -> List[Optional[Row]]:
        """The rows a write replaces: one ``multi_get``, or for one key the
        ``get`` a single-row write always made (a one-key ``multi_get``
        draws the fault plane differently and names another span)."""
        payloads = (
            [self.client.get(table.namespace, keys[0])] if len(keys) == 1
            else self.client.multi_get(table.namespace, keys)
        )
        return [
            deserialize_row(payload) if payload is not None else None
            for payload in payloads
        ]

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

    def _delete_stale_entries(self, table: Table, changes: Sequence[Change]) -> None:
        """Delete the index entries each change leaves stale — every entry
        of the old row that the new one (``None``: no row) lacks — as one
        batch per index namespace."""
        changes = [change for change in changes if change[0] is not None]
        if not changes:
            return
        for index in self.catalog.indexes_for_table(table.name):
            self.client.delete_many(index.namespace, [
                key for old, new in changes
                for key, _ in _entries_only_in(index, table, old, new)
            ])


def _entries_only_in(
    index: IndexDefinition, table: Table, row: Optional[Row], other: Optional[Row]
) -> List[Tuple[bytes, bytes]]:
    """The entries ``row`` puts in ``index`` that ``other`` does not
    (``None`` for either: no row)."""
    if row is None:
        return []
    if other is None:
        return list(index_entries(index, table, row))
    other_keys = {key for key, _ in index_entries(index, table, other)}
    return [
        entry for entry in index_entries(index, table, row)
        if entry[0] not in other_keys
    ]
