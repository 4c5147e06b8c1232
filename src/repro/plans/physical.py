"""Physical query plans.

PIQL's physical operators are split into two groups (Section 5.2):

* **Remote operators** issue requests against the key/value store and must
  each carry an explicit bound — :class:`PhysicalIndexScan`,
  :class:`PhysicalIndexFKJoin`, :class:`PhysicalSortedIndexJoin`, plus
  :class:`PhysicalIndexLookup`, the bounded random-lookup access path used
  by the subscriber-intersection comparison of Section 8.3.
* **Local operators** run in the application tier on data that remote
  operators have already bounded — selection, sort, stop, projection, and
  aggregation.

The dataclasses here are *descriptions*; the interpreter that turns them
into key/value requests lives in :mod:`repro.execution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..schema.ddl import IndexDefinition, Table
from ..sql.ast import Literal, Parameter
from . import logical as L
from .logical import AggregateSpec, BoundColumn, ProjectionItem, ValuePredicate

#: A value used to build a key at execution time: a literal known at compile
#: time, a query parameter bound at execution time, or a column of the child
#: operator's current tuple (for join operators).
KeyPart = Union[Literal, Parameter, BoundColumn]


@dataclass(frozen=True)
class InListPart:
    """A key component that ranges over a bounded list of values (IN)."""

    values: Union[Parameter, Tuple[Literal, ...]]

    def max_cardinality(self) -> Optional[int]:
        if isinstance(self.values, Parameter):
            return self.values.max_cardinality
        return len(self.values)


@dataclass(frozen=True)
class IndexChoice:
    """The index a remote operator reads.

    ``primary=True`` means the base-record namespace is scanned directly (the
    records are clustered by primary key); otherwise ``definition`` names a
    secondary index whose entries must be dereferenced to retrieve full rows
    unless the index covers every needed column.
    """

    table: str
    primary: bool
    definition: Optional[IndexDefinition] = None

    def describe(self) -> str:
        if self.primary:
            return f"{self.table}(primary)"
        assert self.definition is not None
        return self.definition.describe()


def _render_key_part(part: Union[KeyPart, InListPart]) -> str:
    if isinstance(part, Parameter):
        return f"<{part.name}>"
    if isinstance(part, Literal):
        return repr(part.value)
    if isinstance(part, BoundColumn):
        return part.render()
    if isinstance(part, InListPart):
        if isinstance(part.values, Parameter):
            return f"IN<{part.values.name}>"
        return "IN(" + ", ".join(repr(v.value) for v in part.values) + ")"
    return repr(part)


class PhysicalOperator:
    """Base class of all physical plan nodes."""

    def children(self) -> Tuple["PhysicalOperator", ...]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__


# ----------------------------------------------------------------------
# Remote operators
# ----------------------------------------------------------------------
@dataclass
class PhysicalIndexScan(PhysicalOperator):
    """A bounded scan of a contiguous index section (Figure 4(a)).

    ``prefix`` holds the values for the index's leading columns (equality
    predicates, or the token of a keyword search); ``inequality`` optionally
    narrows the next index column to a sub-range; ``limit_hint`` is the
    number of matching entries the executor needs (from a stop operator or a
    data-stop), which also drives prefetching.

    ``pushed_predicates`` are residual predicates that reference only
    fields recoverable from the index entry itself (index-key columns, the
    primary key, or — for a primary-index scan — the stored record); the
    executor evaluates them server-side *before* dereferencing or shipping
    base records.  Operation accounting is per *examined* entry, so pushing
    a predicate down never changes a plan's operation count or its static
    bound — only its RPC payloads and deserialisation work.
    """

    relation_alias: str
    table: str
    index: IndexChoice
    prefix: Tuple[KeyPart, ...] = ()
    inequality: Optional[Tuple[str, str, KeyPart]] = None   # (column, op, value)
    ascending: bool = True
    limit_hint: Optional[Union[int, Parameter]] = None
    data_stop: Optional[int] = None
    needs_dereference: bool = False
    scan_id: str = "scan0"
    pushed_predicates: Tuple[ValuePredicate, ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return ()

    def static_limit_hint(self) -> Optional[int]:
        """Compile-time bound on entries fetched per execution, if known."""
        candidates: List[int] = []
        if isinstance(self.limit_hint, int):
            candidates.append(self.limit_hint)
        elif isinstance(self.limit_hint, Parameter) and self.limit_hint.max_cardinality:
            candidates.append(self.limit_hint.max_cardinality)
        if self.data_stop is not None:
            candidates.append(self.data_stop)
        return min(candidates) if candidates else None

    def label(self) -> str:
        parts = [self.index.describe()]
        if self.prefix:
            parts.append("key=" + ", ".join(_render_key_part(p) for p in self.prefix))
        if self.inequality:
            column, op, value = self.inequality
            parts.append(f"{column} {op} {_render_key_part(value)}")
        parts.append("asc" if self.ascending else "desc")
        hint = self.static_limit_hint()
        if hint is not None:
            parts.append(f"limitHint={hint}")
        if self.pushed_predicates:
            pushed = " AND ".join(p.render() for p in self.pushed_predicates)
            parts.append(f"pushdown=({pushed})")
        return f"IndexScan({', '.join(parts)})"


@dataclass
class PhysicalIndexLookup(PhysicalOperator):
    """A bounded set of random primary-key lookups (no child plan).

    This is the access path PIQL chooses for queries like the subscriber
    intersection query of Section 8.3: equality predicates plus an ``IN``
    over a bounded list together cover the primary key, so the operator
    issues at most ``bound`` point gets.
    """

    relation_alias: str
    table: str
    key_parts: Tuple[Union[KeyPart, InListPart], ...] = ()
    bound: Optional[int] = None

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return ()

    def label(self) -> str:
        keys = ", ".join(_render_key_part(p) for p in self.key_parts)
        return f"IndexLookup({self.table}, key=[{keys}], bound={self.bound})"


@dataclass
class PhysicalIndexFKJoin(PhysicalOperator):
    """For each child tuple, fetch at most one row by primary key (Figure 4(b))."""

    child: PhysicalOperator
    relation_alias: str
    table: str
    key_parts: Tuple[KeyPart, ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(_render_key_part(p) for p in self.key_parts)
        return f"IndexFKJoin({self.table}, key=[{keys}])"


@dataclass
class PhysicalSortedIndexJoin(PhysicalOperator):
    """Per-child-tuple bounded, pre-sorted index range requests (Figure 4(c)).

    For every tuple of the child plan, fetch the top ``limit_hint`` entries
    of the target index for that join key (the index is ordered by the sort
    columns within each join key), then merge, sort, and stop after
    ``stop_count`` rows.
    """

    child: PhysicalOperator
    relation_alias: str
    table: str
    index: IndexChoice
    prefix: Tuple[KeyPart, ...] = ()
    sort_keys: Tuple[Tuple[str, bool], ...] = ()
    ascending: bool = True
    limit_hint: Optional[int] = None
    stop_count: Optional[Union[int, Parameter]] = None
    needs_dereference: bool = False

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def static_stop_count(self) -> Optional[int]:
        if isinstance(self.stop_count, int):
            return self.stop_count
        if isinstance(self.stop_count, Parameter):
            return self.stop_count.max_cardinality
        return None

    def label(self) -> str:
        parts = [self.index.describe()]
        if self.prefix:
            parts.append("key=" + ", ".join(_render_key_part(p) for p in self.prefix))
        if self.sort_keys:
            keys = ", ".join(
                f"{name} {'ASC' if asc else 'DESC'}" for name, asc in self.sort_keys
            )
            parts.append(f"sort=({keys})")
        if self.limit_hint is not None:
            parts.append(f"limitHint={self.limit_hint}")
        return f"SortedIndexJoin({', '.join(parts)})"


# ----------------------------------------------------------------------
# Local operators
# ----------------------------------------------------------------------
@dataclass
class PhysicalLocalSelection(PhysicalOperator):
    """Filter already-local tuples by a conjunction of predicates."""

    child: PhysicalOperator
    predicates: Tuple[ValuePredicate, ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        preds = " AND ".join(p.render() for p in self.predicates)
        return f"LocalSelection({preds})"


@dataclass
class PhysicalLocalSort(PhysicalOperator):
    """Sort already-local tuples."""

    child: PhysicalOperator
    keys: Tuple[Tuple[BoundColumn, bool], ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{col.render()} {'ASC' if asc else 'DESC'}" for col, asc in self.keys
        )
        return f"LocalSort({keys})"


@dataclass
class PhysicalLocalStop(PhysicalOperator):
    """Truncate to the first ``count`` tuples (LIMIT / one PAGINATE page)."""

    child: PhysicalOperator
    count: Union[int, Parameter] = 0
    paginate: bool = False

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def static_count(self) -> Optional[int]:
        if isinstance(self.count, int):
            return self.count
        return self.count.max_cardinality

    def label(self) -> str:
        kind = "Paginate" if self.paginate else "Stop"
        count = self.count if isinstance(self.count, int) else f"<{self.count.name}>"
        return f"Local{kind}({count})"


@dataclass
class PhysicalLocalAggregate(PhysicalOperator):
    """Group-by and aggregation over bounded local data."""

    child: PhysicalOperator
    group_by: Tuple[BoundColumn, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        aggs = ", ".join(
            f"{a.function}({a.argument.render() if a.argument else '*'})"
            for a in self.aggregates
        )
        groups = ", ".join(c.render() for c in self.group_by)
        suffix = f" GROUP BY {groups}" if groups else ""
        return f"LocalAggregate({aggs}){suffix}"


@dataclass
class PhysicalLocalProjection(PhysicalOperator):
    """Project internal tuples to the user-visible output columns."""

    child: PhysicalOperator
    items: Tuple[ProjectionItem, ...] = ()

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return "LocalProjection"


# ----------------------------------------------------------------------
# Predicate pushdown rules (shared by the optimizer and the executor)
# ----------------------------------------------------------------------
def pushable_predicate_columns(
    predicate: ValuePredicate, alias: str, primary_index: bool
) -> Optional[List[str]]:
    """Columns a predicate reads, or ``None`` when it cannot be pushed.

    The single source of truth for what may run server-side on an index
    entry: a value predicate of this relation whose comparison value is a
    literal or parameter (never another tuple's column).  Token matches
    need the column's full text, which only a primary (whole record) scan
    can provide.  Callers scanning a secondary index must additionally
    check the returned columns against :func:`entry_decodable_columns`.
    """
    if isinstance(predicate, (L.AttributeEquality, L.AttributeInequality)):
        if predicate.column.relation != alias or not isinstance(
            predicate.value, (Literal, Parameter)
        ):
            return None
        return [predicate.column.column]
    if isinstance(predicate, L.AttributeIn):
        if predicate.column.relation != alias:
            return None
        return [predicate.column.column]
    if isinstance(predicate, L.TokenMatch):
        if not primary_index or predicate.column.relation != alias:
            return None
        if not isinstance(predicate.value, (Literal, Parameter)):
            return None
        return [predicate.column.column]
    return None


def entry_decodable_columns(
    index: "IndexChoice", table: Table
) -> Optional[Dict[str, int]]:
    """``column -> key component position`` for a secondary index entry.

    Entry keys are the index's column values followed by the full primary
    key, so every non-tokenized index column and every primary-key column
    can be recovered from the key bytes alone.  Returns ``None`` for a
    primary index (the whole record is in the value; no decoding needed).
    """
    if index.primary or index.definition is None:
        return None
    positions: Dict[str, int] = {}
    for offset, column in enumerate(index.definition.columns):
        if not column.tokenized and column.name not in positions:
            positions[column.name] = offset
    base = len(index.definition.columns)
    for offset, pk_column in enumerate(table.primary_key):
        # The appended primary-key suffix is authoritative (it always holds
        # the raw value, even when the index column form is transformed).
        positions[pk_column] = base + offset
    return positions


# ----------------------------------------------------------------------
# Traversal helpers
# ----------------------------------------------------------------------
def walk(plan: PhysicalOperator):
    """Yield every operator of a plan, top-down."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def find_scans(plan: PhysicalOperator) -> List[PhysicalIndexScan]:
    """All index scans of a plan (used by the pagination cursor logic)."""
    return [op for op in walk(plan) if isinstance(op, PhysicalIndexScan)]
