"""Schema catalog: the set of tables and indexes known to a PIQL database."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import SchemaError, UnknownTableError
from .ddl import IndexColumn, IndexDefinition, Table


class Catalog:
    """Holds all table and index definitions for one database instance.

    The catalog is consulted by the parser (column resolution), the
    optimizer (cardinality constraints, available indexes), and the storage
    layer (which namespaces and index structures to maintain on writes).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, IndexDefinition] = {}
        #: Materialized views by lower-cased name.  The values are
        #: :class:`repro.views.definition.MaterializedView` objects; the
        #: catalog stores them opaquely to avoid a schema -> views import
        #: cycle.  Each view also registers a backing :class:`Table` (one
        #:  row per group) and, for top-k views, an ordered index on it.
        self._views: Dict[str, object] = {}
        #: Names (lower-cased) of indexes the optimizer's index selection
        #: invented, as opposed to indexes declared by the schema (CREATE
        #: INDEX, cardinality-constraint support indexes).  Plans keep
        #: reporting these under ``required_indexes`` even after they exist,
        #: so "which additional indexes does this query need" (Table 1) does
        #: not depend on which query happened to be compiled first.
        self._auto_created: set = set()
        #: Bumped on every schema change.  Plan caches (one per database
        #: view, all sharing this catalog) compare against it so DDL issued
        #: through any view invalidates every view's cached plans.
        self.version = 0

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[Table]:
        return [self._tables[k] for k in sorted(self._tables)]

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def add_index(
        self, index: IndexDefinition, auto_created: bool = False
    ) -> IndexDefinition:
        """Register an index; adding an identical index twice is a no-op.

        ``auto_created=True`` records that the index came from automatic
        index selection rather than the schema (see :meth:`is_auto_created`).
        """
        if not self.has_table(index.table):
            raise UnknownTableError(index.table)
        table = self.table(index.table)
        for column in index.columns:
            if not table.has_column(column.name):
                raise SchemaError(
                    f"index {index.name!r} references unknown column "
                    f"{column.name!r} of table {index.table!r}"
                )
        key = index.name.lower()
        existing = self._indexes.get(key)
        if existing is not None:
            if existing.columns == index.columns and existing.table == index.table:
                return existing
            raise SchemaError(f"index {index.name!r} already exists")
        self._indexes[key] = index
        if auto_created:
            self._auto_created.add(key)
        self.version += 1
        return index

    def index(self, name: str) -> IndexDefinition:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown index: {name!r}") from None

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def is_auto_created(self, name: str) -> bool:
        """Whether the index was invented by automatic index selection."""
        return name.lower() in self._auto_created

    def indexes(self) -> List[IndexDefinition]:
        return [self._indexes[k] for k in sorted(self._indexes)]

    def indexes_for_table(self, table: str) -> List[IndexDefinition]:
        return [ix for ix in self.indexes() if ix.table.lower() == table.lower()]

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------
    def add_view(self, view) -> None:
        """Register a materialized view (its backing table must exist)."""
        key = view.name.lower()
        if key in self._views:
            raise SchemaError(f"materialized view {view.name!r} already exists")
        if not self.has_table(view.backing_table.name):
            raise SchemaError(
                f"materialized view {view.name!r} has no registered backing table"
            )
        self._views[key] = view
        self.version += 1

    def view(self, name: str):
        try:
            return self._views[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown materialized view: {name!r}") from None

    def has_view(self, name: str) -> bool:
        return name.lower() in self._views

    def views(self) -> List[object]:
        return [self._views[k] for k in sorted(self._views)]

    def views_for_table(self, table: str) -> List[object]:
        """Views whose *driving* table is ``table`` (maintenance triggers)."""
        return [
            v for v in self.views() if v.driving_table.lower() == table.lower()
        ]

    # ------------------------------------------------------------------
    # Index search (used by the optimizer's index selection, Section 5.3)
    # ------------------------------------------------------------------
    def find_index(
        self, table: str, prefix_columns: Sequence[IndexColumn]
    ) -> Optional[IndexDefinition]:
        """Find an index on ``table`` whose leading columns match exactly.

        ``prefix_columns`` must match the index's leading columns (name and
        tokenisation).  Returns ``None`` if no such index exists.
        """
        wanted = list(prefix_columns)
        for index in self.indexes_for_table(table):
            if len(index.columns) < len(wanted):
                continue
            if all(
                index.columns[i].name == wanted[i].name
                and index.columns[i].tokenized == wanted[i].tokenized
                for i in range(len(wanted))
            ):
                return index
        return None

    @staticmethod
    def index_name(table: str, columns: Iterable[IndexColumn]) -> str:
        """Canonical generated name for an index on ``columns`` of ``table``."""
        parts = []
        for column in columns:
            parts.append(("tok_" if column.tokenized else "") + column.name.lower())
        return f"idx_{table.lower()}__" + "__".join(parts)
