"""Abstract syntax tree for PIQL statements.

The AST mirrors the PIQL surface language: standard SQL SELECT with
equi-joins, conjunctive WHERE clauses, ORDER BY, LIMIT — plus the PIQL
extensions (PAGINATE, bracketed parameters, CARDINALITY LIMIT in DDL).
Nodes are plain dataclasses; the analyzer in :mod:`repro.plans.builder`
resolves names against the catalog and converts the AST into a logical plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..schema.ddl import Table


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    """A constant value appearing in the query text."""

    value: object


@dataclass(frozen=True)
class Parameter:
    """A query parameter: ``[1: titleWord]``, ``[2: friends(50)]`` or ``<uname>``.

    Attributes
    ----------
    name:
        Parameter name used for binding at execution time.
    index:
        Positional index from the bracket syntax (``None`` for ``<name>``).
    max_cardinality:
        Declared maximum number of values for list-valued parameters; used
        by the optimizer to bound ``IN`` predicates.
    """

    name: str
    index: Optional[int] = None
    max_cardinality: Optional[int] = None


@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference, e.g. ``t.owner`` or ``owner``."""

    column: str
    table: Optional[str] = None

    def render(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in the select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate function call: COUNT(*), SUM(col), AVG, MIN, MAX."""

    function: str                     # COUNT, SUM, AVG, MIN, MAX
    argument: Optional[ColumnRef]     # None for COUNT(*)
    alias: Optional[str] = None


Value = Union[Literal, Parameter, ColumnRef]


# ----------------------------------------------------------------------
# Predicates (WHERE clause is a conjunction of these)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """``column op value`` or ``column op other_column`` (join predicate)."""

    left: ColumnRef
    op: str                            # '=', '<', '<=', '>', '>=', '<>'
    right: Value


@dataclass(frozen=True)
class LikePredicate:
    """``column LIKE pattern`` — executed as a tokenized keyword search."""

    column: ColumnRef
    pattern: Value


@dataclass(frozen=True)
class ContainsPredicate:
    """``column CONTAINS token`` — explicit inverted-index keyword search."""

    column: ColumnRef
    token: Value


@dataclass(frozen=True)
class InPredicate:
    """``column IN [k: values]`` or ``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: Union[Parameter, Tuple[Literal, ...]]


Predicate = Union[Comparison, LikePredicate, ContainsPredicate, InPredicate]


# ----------------------------------------------------------------------
# SELECT
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause with an optional alias."""

    name: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    column: ColumnRef
    ascending: bool = True


@dataclass(frozen=True)
class LimitClause:
    """LIMIT n or PAGINATE n (``paginate`` distinguishes the two)."""

    count: Union[int, Parameter]
    paginate: bool = False


SelectItem = Union[Star, ColumnRef, AggregateCall]


@dataclass
class SelectStatement:
    """A parsed PIQL SELECT statement."""

    select_items: List[SelectItem]
    tables: List[TableRef]
    where: List[Predicate] = field(default_factory=list)
    group_by: List[ColumnRef] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[LimitClause] = None

    def parameters(self) -> List[Parameter]:
        """All parameters appearing anywhere in the statement, in query order."""
        params: List[Parameter] = []

        def maybe_add(value: object) -> None:
            if isinstance(value, Parameter):
                params.append(value)

        for predicate in self.where:
            if isinstance(predicate, Comparison):
                maybe_add(predicate.right)
            elif isinstance(predicate, LikePredicate):
                maybe_add(predicate.pattern)
            elif isinstance(predicate, ContainsPredicate):
                maybe_add(predicate.token)
            elif isinstance(predicate, InPredicate):
                maybe_add(predicate.values)
        if self.limit is not None:
            maybe_add(self.limit.count)
        return params


# ----------------------------------------------------------------------
# DDL / DML
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreateTableStatement:
    """A parsed CREATE TABLE (including PIQL's CARDINALITY LIMIT)."""

    table: Table


@dataclass(frozen=True)
class CreateMaterializedViewStatement:
    """``CREATE MATERIALIZED VIEW name AS SELECT ...``.

    The SELECT body is an aggregate query (``GROUP BY`` plus aggregate
    outputs), optionally carrying ``ORDER BY <aggregate> [DESC] LIMIT k``
    which declares a bounded top-k ordering maintained incrementally (see
    :mod:`repro.views`).  View definitions are parameter-free.
    """

    name: str
    select: "SelectStatement"


@dataclass(frozen=True)
class CreateIndexStatement:
    """CREATE [UNIQUE] INDEX name ON table (col | token(col), ...)."""

    name: str
    table: str
    columns: Tuple[Tuple[str, bool], ...]   # (column, tokenized)
    #: Parsed so that ``PiqlDatabase.execute_ddl`` can reject it: no insert
    #: checks uniqueness.
    unique: bool = False


@dataclass(frozen=True)
class InsertStatement:
    """INSERT INTO table (cols) VALUES (values)."""

    table: str
    columns: Tuple[str, ...]
    values: Tuple[object, ...]


Statement = Union[
    SelectStatement,
    CreateTableStatement,
    CreateIndexStatement,
    CreateMaterializedViewStatement,
    InsertStatement,
]
