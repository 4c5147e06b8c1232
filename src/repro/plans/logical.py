"""Logical query plans and analyzed (name-resolved) predicates.

The logical plan is the optimizer's working representation (Figure 3(b)/(c)
in the paper).  Besides the standard relational operators it contains PIQL's
two bounding operators:

* :class:`Stop` — the classic stop-after operator produced by ``LIMIT`` and
  ``PAGINATE`` clauses (Carey & Kossmann), and
* :class:`DataStop` — PIQL's new annotation operator recording that a plan
  section can produce at most ``count`` tuples because of a schema
  constraint (primary-key equality or a ``CARDINALITY LIMIT``).  Data-stops
  may be pushed past predicates that did not cause them, which is what makes
  more plans statically boundable (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..sql.ast import Literal, Parameter

Value = Union[Literal, Parameter]


# ----------------------------------------------------------------------
# Analyzed expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundColumn:
    """A column reference resolved to a specific relation instance (alias)."""

    relation: str          # the alias binding the relation instance
    table: str             # canonical table name
    column: str            # canonical column name

    def render(self) -> str:
        return f"{self.relation}.{self.column}"


@dataclass(frozen=True)
class AttributeEquality:
    """``column = value`` where value is a literal or a query parameter."""

    column: BoundColumn
    value: Value

    def render(self) -> str:
        return f"{self.column.render()} = {_render_value(self.value)}"


@dataclass(frozen=True)
class AttributeInequality:
    """``column op value`` for op in <, <=, >, >=, <>."""

    column: BoundColumn
    op: str
    value: Value

    def render(self) -> str:
        return f"{self.column.render()} {self.op} {_render_value(self.value)}"


@dataclass(frozen=True)
class TokenMatch:
    """A keyword search against an inverted full-text index (LIKE/CONTAINS)."""

    column: BoundColumn
    value: Value

    def render(self) -> str:
        return f"token({self.column.render()}) = {_render_value(self.value)}"


@dataclass(frozen=True)
class AttributeIn:
    """``column IN <list parameter>`` or ``column IN (literals)``."""

    column: BoundColumn
    values: Union[Parameter, Tuple[Literal, ...]]

    def max_cardinality(self) -> Optional[int]:
        """Declared bound on the number of values, if known statically."""
        if isinstance(self.values, Parameter):
            return self.values.max_cardinality
        return len(self.values)

    def render(self) -> str:
        if isinstance(self.values, Parameter):
            return f"{self.column.render()} IN [{self.values.name}]"
        inner = ", ".join(_render_value(v) for v in self.values)
        return f"{self.column.render()} IN ({inner})"


@dataclass(frozen=True)
class JoinEquality:
    """An equality predicate between columns of two different relations."""

    left: BoundColumn
    right: BoundColumn

    def involves(self, relation: str) -> bool:
        return relation in (self.left.relation, self.right.relation)

    def column_for(self, relation: str) -> BoundColumn:
        if self.left.relation == relation:
            return self.left
        if self.right.relation == relation:
            return self.right
        raise KeyError(relation)

    def other(self, relation: str) -> BoundColumn:
        if self.left.relation == relation:
            return self.right
        if self.right.relation == relation:
            return self.left
        raise KeyError(relation)

    def render(self) -> str:
        return f"{self.left.render()} = {self.right.render()}"


ValuePredicate = Union[AttributeEquality, AttributeInequality, TokenMatch, AttributeIn]
Predicate = Union[ValuePredicate, JoinEquality]


def _render_value(value: Value) -> str:
    if isinstance(value, Parameter):
        return f"<{value.name}>"
    return repr(value.value)


# ----------------------------------------------------------------------
# Aggregates / projection items
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column (COUNT/SUM/AVG/MIN/MAX)."""

    function: str
    argument: Optional[BoundColumn]
    output_name: str


@dataclass(frozen=True)
class StarItem:
    """``*`` or ``alias.*`` in the projection."""

    relation: Optional[str] = None


ProjectionItem = Union[BoundColumn, StarItem, AggregateSpec]


# ----------------------------------------------------------------------
# Logical operators
# ----------------------------------------------------------------------
class LogicalOperator:
    """Base class for logical plan nodes."""

    def children(self) -> Tuple["LogicalOperator", ...]:
        raise NotImplementedError

    def label(self) -> str:
        """Short human-readable label used by the plan printer."""
        return type(self).__name__


@dataclass
class Relation(LogicalOperator):
    """A base relation access."""

    table: str
    alias: str

    def children(self) -> Tuple[LogicalOperator, ...]:
        return ()

    def label(self) -> str:
        if self.alias.lower() == self.table.lower():
            return f"Relation({self.table})"
        return f"Relation({self.table} AS {self.alias})"


@dataclass
class Selection(LogicalOperator):
    """Filter by a conjunction of value predicates."""

    child: LogicalOperator
    predicates: Tuple[ValuePredicate, ...]

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        preds = " AND ".join(p.render() for p in self.predicates)
        return f"Selection({preds})"


@dataclass
class Join(LogicalOperator):
    """Equi-join of two subplans."""

    left: LogicalOperator
    right: LogicalOperator
    predicates: Tuple[JoinEquality, ...]

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        preds = " AND ".join(p.render() for p in self.predicates)
        return f"Join({preds})"


@dataclass
class Sort(LogicalOperator):
    """Sort by one or more keys."""

    child: LogicalOperator
    keys: Tuple[Tuple[BoundColumn, bool], ...]    # (column, ascending)

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{col.render()} {'ASC' if asc else 'DESC'}" for col, asc in self.keys
        )
        return f"Sort({keys})"


@dataclass
class Stop(LogicalOperator):
    """Standard stop-after operator from a LIMIT or PAGINATE clause."""

    child: LogicalOperator
    count: Union[int, Parameter]
    paginate: bool = False

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def static_count(self) -> Optional[int]:
        """The stop count if known at compile time, else the declared max."""
        if isinstance(self.count, int):
            return self.count
        return self.count.max_cardinality

    def label(self) -> str:
        kind = "Paginate" if self.paginate else "Stop"
        count = self.count if isinstance(self.count, int) else f"<{self.count.name}>"
        return f"{kind}({count})"


@dataclass
class DataStop(LogicalOperator):
    """PIQL's data-stop annotation (Section 5.1).

    ``count`` is the maximum number of tuples the subplan can produce given
    the schema constraint identified by ``constraint_columns`` of relation
    ``relation``; ``caused_by`` are the equality predicates whose presence
    justified the insertion (a data-stop may be pushed past every predicate
    *except* these).
    """

    child: LogicalOperator
    count: int
    relation: str
    constraint_columns: Tuple[str, ...]
    caused_by: Tuple[ValuePredicate, ...] = ()

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        cols = ", ".join(self.constraint_columns)
        return f"DataStop({self.count} via {self.relation}[{cols}])"


@dataclass
class Aggregate(LogicalOperator):
    """Grouping and aggregation (always a local, bounded operation in PIQL)."""

    child: LogicalOperator
    group_by: Tuple[BoundColumn, ...]
    aggregates: Tuple[AggregateSpec, ...]

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        aggs = ", ".join(
            f"{a.function}({a.argument.render() if a.argument else '*'})"
            for a in self.aggregates
        )
        groups = ", ".join(c.render() for c in self.group_by)
        suffix = f" GROUP BY {groups}" if groups else ""
        return f"Aggregate({aggs}){suffix}"


@dataclass
class Project(LogicalOperator):
    """Projection to the requested output columns."""

    child: LogicalOperator
    items: Tuple[ProjectionItem, ...]

    def children(self) -> Tuple[LogicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        for item in self.items:
            if isinstance(item, StarItem):
                parts.append(f"{item.relation}.*" if item.relation else "*")
            elif isinstance(item, BoundColumn):
                parts.append(item.render())
            else:
                arg = item.argument.render() if item.argument else "*"
                parts.append(f"{item.function}({arg})")
        return f"Project({', '.join(parts)})"


# ----------------------------------------------------------------------
# Normalized query specification
# ----------------------------------------------------------------------
@dataclass
class RelationSpec:
    """One relation instance of the query and the predicates that touch it."""

    alias: str
    table: str
    equalities: List[AttributeEquality] = field(default_factory=list)
    inequalities: List[AttributeInequality] = field(default_factory=list)
    token_matches: List[TokenMatch] = field(default_factory=list)
    in_predicates: List[AttributeIn] = field(default_factory=list)

    def all_value_predicates(self) -> List[ValuePredicate]:
        return (
            list(self.equalities)
            + list(self.token_matches)
            + list(self.in_predicates)
            + list(self.inequalities)
        )


@dataclass
class QuerySpec:
    """A fully analyzed query in normalized (non-tree) form.

    The optimizer's two phases consume this together with the logical plan
    tree; keeping both makes the tree transformations easy to display while
    the normalized form keeps the matching logic simple.
    """

    relations: List[RelationSpec]
    join_predicates: List[JoinEquality]
    sort_keys: List[Tuple[BoundColumn, bool]]
    stop: Optional[Stop]                    # Stop with no child attached yet
    projection: Tuple[ProjectionItem, ...]
    group_by: Tuple[BoundColumn, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()
    #: ``ORDER BY`` keys that name an aggregate output instead of a stored
    #: column, as ``(output_name, ascending)``.  Such an ordering ranks the
    #: *groups* of an aggregation, which no bounded scan of base data can
    #: satisfy — the optimizer either rewrites the query against a
    #: materialized view (:mod:`repro.views`) or rejects it.
    aggregate_sort_keys: List[Tuple[str, bool]] = field(default_factory=list)

    def relation(self, alias: str) -> RelationSpec:
        for spec in self.relations:
            if spec.alias == alias:
                return spec
        raise KeyError(alias)

    def join_predicates_between(
        self, placed: Sequence[str], alias: str
    ) -> List[JoinEquality]:
        """Join predicates linking ``alias`` to any already-placed relation."""
        placed_set = set(placed)
        found = []
        for predicate in self.join_predicates:
            if not predicate.involves(alias):
                continue
            other = predicate.other(alias)
            if other.relation in placed_set:
                found.append(predicate)
        return found
