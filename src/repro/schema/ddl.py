"""Schema objects: tables, constraints, and PIQL's DDL extensions.

The one genuinely new DDL construct in PIQL is the **relationship
cardinality constraint** (Section 4.2)::

    CREATE TABLE Subscriptions (
        ownerUserId INT,
        targetUserId INT,
        ...
        CARDINALITY LIMIT 100 (ownerUserId)
    )

which tells the optimizer that at most 100 rows may share any particular
value of ``ownerUserId``.  Together with primary keys (cardinality one) and
foreign keys (cardinality one in the child-to-parent direction), these
constraints are what let the optimizer insert *data-stop* operators and
bound intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaError, UnknownColumnError
from .types import ColumnType


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: ColumnType
    nullable: bool = True

    def estimated_size(self) -> int:
        return self.type.estimated_size()


@dataclass(frozen=True)
class ForeignKey:
    """A referential-integrity constraint.

    From the optimizer's point of view a foreign key states that an equality
    join from ``columns`` to the *primary key* of ``ref_table`` produces at
    most one matching tuple per input tuple (Section 4.2).
    """

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                "foreign key column count does not match referenced columns"
            )


@dataclass(frozen=True)
class CardinalityLimit:
    """PIQL's ``CARDINALITY LIMIT n (columns)`` constraint.

    At most ``limit`` rows of the table may share any one combination of
    values for ``columns``.
    """

    limit: int
    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise SchemaError("CARDINALITY LIMIT must be at least 1")
        if not self.columns:
            raise SchemaError("CARDINALITY LIMIT requires at least one column")


@dataclass(frozen=True)
class IndexColumn:
    """A column participating in an index, optionally token-ised.

    ``tokenized=True`` models the inverted full-text indexes of Section 7.3
    (the DDL/optimizer spell it ``token(column)``): the index contains one
    entry per lower-cased word of the column value instead of one entry per
    value.
    """

    name: str
    tokenized: bool = False

    def render(self) -> str:
        return f"token({self.name})" if self.tokenized else self.name


@dataclass(frozen=True)
class IndexDefinition:
    """A secondary index over a table.

    The key of an index entry is the index columns followed by the table's
    primary key (so entries are unique and point back at the base record).
    """

    name: str
    table: str
    columns: Tuple[IndexColumn, ...]

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @cached_property
    def namespace(self) -> str:
        """Key/value store namespace holding this index's entries.

        Computed once and kept, like :attr:`Table.namespace`.
        """
        return f"index:{self.name.lower()}"

    def describe(self) -> str:
        cols = ", ".join(c.render() for c in self.columns)
        return f"{self.table}({cols})"


@dataclass
class Table:
    """A relational table stored on the key/value store."""

    name: str
    columns: List[Column]
    primary_key: Tuple[str, ...]
    foreign_keys: List[ForeignKey] = field(default_factory=list)
    cardinality_limits: List[CardinalityLimit] = field(default_factory=list)
    #: Set when this table is the backing store of a materialized view (one
    #: row per group, maintained incrementally by :mod:`repro.views`).  Such
    #: tables are written by the view-maintenance engine only — never through
    #: the DML API — and are what the optimizer's view rewrite scans.
    backing_view: Optional[str] = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        self._columns_by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        if not self.primary_key:
            raise SchemaError(f"table {self.name!r} must declare a primary key")
        for pk_col in self.primary_key:
            if pk_col not in self._columns_by_name:
                raise UnknownColumnError(pk_col, self.name)
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col not in self._columns_by_name:
                    raise UnknownColumnError(col, self.name)
        for limit in self.cardinality_limits:
            for col in limit.columns:
                if col not in self._columns_by_name:
                    raise UnknownColumnError(col, self.name)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise UnknownColumnError(name, self.name) from None

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @cached_property
    def namespace(self) -> str:
        """Key/value store namespace holding this table's records.

        Computed on first use and kept: every request routes with this one
        string, so the placement cache and the engines key on one object.
        """
        return f"table:{self.name.lower()}"

    # ------------------------------------------------------------------
    # Constraint reasoning (used by the optimizer)
    # ------------------------------------------------------------------
    def covers_primary_key(self, attributes: Sequence[str]) -> bool:
        """True if ``attributes`` includes every primary-key column."""
        return set(self.primary_key) <= set(attributes)

    def matching_cardinality(self, attributes: Sequence[str]) -> Optional[int]:
        """Return the tightest cardinality bound implied by equality on ``attributes``.

        A full primary-key match gives a bound of one; otherwise the
        smallest ``CARDINALITY LIMIT`` whose columns are all contained in
        ``attributes`` applies; otherwise ``None`` (unbounded).
        """
        attrs = set(attributes)
        if self.covers_primary_key(attrs):
            return 1
        best: Optional[int] = None
        for limit in self.cardinality_limits:
            if set(limit.columns) <= attrs:
                if best is None or limit.limit < best:
                    best = limit.limit
        return best

    def cardinality_limit_for(self, attributes: Sequence[str]) -> Optional[CardinalityLimit]:
        """Return the tightest matching ``CardinalityLimit`` object, if any."""
        attrs = set(attributes)
        best: Optional[CardinalityLimit] = None
        for limit in self.cardinality_limits:
            if set(limit.columns) <= attrs:
                if best is None or limit.limit < best.limit:
                    best = limit
        return best

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def validate_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and coerce a row dict; unknown columns are rejected."""
        validated: Dict[str, Any] = {}
        for key in row:
            if key not in self._columns_by_name:
                raise UnknownColumnError(key, self.name)
        for column in self.columns:
            if column.name in row and row[column.name] is not None:
                validated[column.name] = column.type.validate(row[column.name])
            else:
                if column.name in self.primary_key:
                    raise SchemaError(
                        f"primary key column {column.name!r} of table "
                        f"{self.name!r} must not be null"
                    )
                if not column.nullable:
                    raise SchemaError(
                        f"column {column.name!r} of table {self.name!r} "
                        "must not be null"
                    )
                validated[column.name] = None
        return validated

    def primary_key_values(self, row: Dict[str, Any]) -> List[Any]:
        """Extract the primary-key values from a row, in key order."""
        return [row[c] for c in self.primary_key]

    def estimated_row_bytes(self) -> int:
        """Estimated serialised size of one row (the beta of Section 6.1)."""
        return sum(c.estimated_size() for c in self.columns)
