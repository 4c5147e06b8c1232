"""Materialized-view definitions and their analysis.

A view is declared as an aggregate SELECT::

    CREATE MATERIALIZED VIEW best_sellers_by_subject AS
    SELECT i.I_SUBJECT, ol.OL_I_ID, SUM(ol.OL_QTY) AS total_sold
    FROM order_line ol JOIN item i
    WHERE i.I_ID = ol.OL_I_ID
    GROUP BY i.I_SUBJECT, ol.OL_I_ID
    ORDER BY total_sold DESC LIMIT 50

and analyzed into:

* a **backing table** registered in the catalog — one row per group, primary
  key = the GROUP BY columns in declared order, one column per aggregate
  output (plus hidden ``_``-prefixed merge state inside the stored record);
* the **driving table** — the relation whose inserts/updates/deletes trigger
  maintenance — and a resolution order for the remaining relations, each of
  which must be reachable through foreign-key-shaped join predicates (a
  bounded point lookup per delta).  Dimension attributes are treated as
  immutable: updates to joined relations are not propagated, the standard
  star-schema assumption;
* for ``ORDER BY <aggregate> LIMIT k`` views, a **bounded ordered view
  index**: the last GROUP BY column is the ranked entity, every preceding
  GROUP BY column partitions the ranking, and the index keeps the top ``k``
  entities per partition with eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import SchemaError
from ..plans import logical as L
from ..plans.builder import LogicalPlanBuilder
from ..schema.catalog import Catalog
from ..schema.ddl import Column, IndexColumn, IndexDefinition, Table
from ..schema.types import FloatType, IntType
from ..sql import ast

#: Aggregate functions the delta-maintenance engine can merge incrementally.
#: AVG is maintained from hidden SUM/COUNT state; MIN/MAX keep a bounded
#: ordered candidate buffer per group (see maintenance.MINMAX_CANDIDATES).
SUPPORTED_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class ViewOrderSpec:
    """The declared ``ORDER BY <aggregate> [DESC] LIMIT k`` of a view."""

    aggregate: str          # output_name of the ordering aggregate
    ascending: bool
    limit: int              # top-k capacity per partition


@dataclass(frozen=True)
class DimensionJoin:
    """One non-driving relation, resolvable by a bounded point lookup.

    ``key_sources`` pairs each primary-key column of the dimension table
    with the already-resolved column supplying its value, in key order.
    """

    alias: str
    table: str
    key_sources: Tuple[Tuple[str, L.BoundColumn], ...]


@dataclass
class MaterializedView:
    """One registered materialized view (definition + storage layout)."""

    name: str
    sql: str
    statement: ast.SelectStatement
    spec: L.QuerySpec
    driving_alias: str
    driving_table: str
    dimensions: List[DimensionJoin]
    group_columns: Tuple[L.BoundColumn, ...]
    aggregates: Tuple[L.AggregateSpec, ...]
    order: Optional[ViewOrderSpec]
    backing_table: Table
    order_index: Optional[IndexDefinition]
    #: Value predicates of the definition, evaluated per delta on the
    #: resolved rows (a delta that fails them contributes nothing).
    predicates: Tuple[L.ValuePredicate, ...] = ()
    #: Driving-row columns the view's contribution depends on (group
    #: sources, aggregate arguments, predicate columns, and dimension join
    #: keys, restricted to the driving relation).  Precomputed here so the
    #: maintenance engine's no-op fast path costs no per-write set
    #: construction; under the immutable-dimension assumption, two driving
    #: rows equal on these columns make identical contributions.
    driving_columns: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    @property
    def namespace(self) -> str:
        """Key/value namespace of the backing records (one per group)."""
        return self.backing_table.namespace

    @property
    def group_column_names(self) -> Tuple[str, ...]:
        return tuple(c.column for c in self.group_columns)

    @property
    def partition_column_names(self) -> Tuple[str, ...]:
        """Backing columns that partition the top-k ranking (may be empty)."""
        if self.order is None:
            return ()
        return self.group_column_names[:-1]

    @property
    def entity_column_names(self) -> Tuple[str, ...]:
        """The ranked-entity backing column(s) of a top-k view."""
        if self.order is None:
            return ()
        return self.group_column_names[-1:]

    def describe(self) -> str:
        parts = [f"{self.name}: GROUP BY ({', '.join(self.group_column_names)})"]
        parts.append(
            "aggregates ("
            + ", ".join(
                f"{a.function}({a.argument.column if a.argument else '*'}) "
                f"AS {a.output_name}"
                for a in self.aggregates
            )
            + ")"
        )
        if self.order is not None:
            direction = "ASC" if self.order.ascending else "DESC"
            parts.append(
                f"top-{self.order.limit} by {self.order.aggregate} {direction}"
                + (
                    f" per ({', '.join(self.partition_column_names)})"
                    if self.partition_column_names
                    else ""
                )
            )
        return "; ".join(parts)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyze_view(
    statement: ast.CreateMaterializedViewStatement, catalog: Catalog
) -> MaterializedView:
    """Resolve a parsed ``CREATE MATERIALIZED VIEW`` against the catalog."""
    name = statement.name
    if catalog.has_table(name) or catalog.has_view(name):
        raise SchemaError(f"name {name!r} is already in use")

    builder = LogicalPlanBuilder(catalog)
    spec = builder.build_spec(statement.select)

    if not spec.aggregates:
        raise SchemaError(
            f"materialized view {name!r} must compute at least one aggregate"
        )
    if not spec.group_by:
        raise SchemaError(
            f"materialized view {name!r} must declare GROUP BY columns "
            "(they form the backing table's primary key)"
        )
    for aggregate in spec.aggregates:
        if aggregate.function not in SUPPORTED_AGGREGATES:
            raise SchemaError(
                f"aggregate {aggregate.function} is not incrementally "
                f"maintainable; supported: {', '.join(SUPPORTED_AGGREGATES)}"
            )
    if spec.sort_keys:
        raise SchemaError(
            f"materialized view {name!r} may only ORDER BY one of its "
            "aggregate outputs"
        )
    output_names = [a.output_name for a in spec.aggregates] + [
        c.column for c in spec.group_by
    ]
    if len(set(n.lower() for n in output_names)) != len(output_names):
        raise SchemaError(
            f"materialized view {name!r} has duplicate output column names; "
            "alias the aggregates (AS ...) to make them unique"
        )

    order = _analyze_order(name, spec)
    driving_alias, dimensions = _resolve_driving(name, spec, catalog)
    backing_table = _build_backing_table(name, spec, catalog)
    order_index = _build_order_index(spec, order, backing_table)

    predicates: List[L.ValuePredicate] = []
    for relation in spec.relations:
        predicates.extend(relation.all_value_predicates())
    for predicate in predicates:
        if isinstance(predicate, L.TokenMatch):
            raise SchemaError(
                f"materialized view {name!r}: keyword-search predicates are "
                "not supported in view definitions"
            )

    return MaterializedView(
        name=name,
        sql="",
        statement=statement.select,
        spec=spec,
        driving_alias=driving_alias,
        driving_table=spec.relation(driving_alias).table,
        dimensions=dimensions,
        group_columns=spec.group_by,
        aggregates=spec.aggregates,
        order=order,
        backing_table=backing_table,
        order_index=order_index,
        predicates=tuple(predicates),
        driving_columns=_driving_columns(
            driving_alias, spec, dimensions, predicates
        ),
    )


def _driving_columns(
    driving_alias: str,
    spec: L.QuerySpec,
    dimensions: List[DimensionJoin],
    predicates: List[L.ValuePredicate],
) -> Tuple[str, ...]:
    columns = set()
    for column in spec.group_by:
        if column.relation == driving_alias:
            columns.add(column.column)
    for aggregate in spec.aggregates:
        argument = aggregate.argument
        if argument is not None and argument.relation == driving_alias:
            columns.add(argument.column)
    for predicate in predicates:
        if predicate.column.relation == driving_alias:
            columns.add(predicate.column.column)
    for dimension in dimensions:
        for _, source in dimension.key_sources:
            if source.relation == driving_alias:
                columns.add(source.column)
    return tuple(sorted(columns))


def _analyze_order(name: str, spec: L.QuerySpec) -> Optional[ViewOrderSpec]:
    if not spec.aggregate_sort_keys:
        if spec.stop is not None:
            raise SchemaError(
                f"materialized view {name!r}: LIMIT requires an ORDER BY on "
                "an aggregate output (it declares the top-k capacity)"
            )
        return None
    if len(spec.aggregate_sort_keys) != 1:
        raise SchemaError(
            f"materialized view {name!r} may ORDER BY at most one aggregate"
        )
    if spec.stop is None or not isinstance(spec.stop.count, int):
        raise SchemaError(
            f"materialized view {name!r}: ORDER BY requires a literal "
            "LIMIT k declaring the bounded top-k capacity"
        )
    if spec.stop.paginate:
        raise SchemaError(
            f"materialized view {name!r}: use LIMIT, not PAGINATE, for the "
            "top-k capacity"
        )
    output_name, ascending = spec.aggregate_sort_keys[0]
    return ViewOrderSpec(
        aggregate=output_name, ascending=ascending, limit=spec.stop.count
    )


def _resolve_driving(
    name: str, spec: L.QuerySpec, catalog: Catalog
) -> Tuple[str, List[DimensionJoin]]:
    """Pick the driving relation and a point-lookup order for the rest.

    Every non-driving relation must be reachable through join predicates
    covering its full primary key with values from already-resolved
    relations — the FK-shaped joins that cost one bounded ``get`` per delta.
    """
    candidates: List[Tuple[str, List[DimensionJoin]]] = []
    for relation in spec.relations:
        dimensions = _dimension_order(relation.alias, spec, catalog)
        if dimensions is not None:
            candidates.append((relation.alias, dimensions))
    if not candidates:
        raise SchemaError(
            f"materialized view {name!r}: no relation can drive maintenance "
            "(every other relation must be joined on its full primary key)"
        )
    # Prefer a driving relation that owns an aggregate argument (the fact
    # table); fall back to FROM order.
    argument_aliases = {
        a.argument.relation for a in spec.aggregates if a.argument is not None
    }
    for alias, dimensions in candidates:
        if alias in argument_aliases:
            return alias, dimensions
    return candidates[0]


def _dimension_order(
    driving_alias: str, spec: L.QuerySpec, catalog: Catalog
) -> Optional[List[DimensionJoin]]:
    resolved = {driving_alias}
    order: List[DimensionJoin] = []
    pending = [r for r in spec.relations if r.alias != driving_alias]
    while pending:
        progressed = False
        for relation in list(pending):
            table = catalog.table(relation.table)
            sources: Dict[str, L.BoundColumn] = {}
            for predicate in spec.join_predicates:
                if not predicate.involves(relation.alias):
                    continue
                other = predicate.other(relation.alias)
                if other.relation in resolved:
                    sources[predicate.column_for(relation.alias).column] = other
            if all(column in sources for column in table.primary_key):
                order.append(
                    DimensionJoin(
                        alias=relation.alias,
                        table=table.name,
                        key_sources=tuple(
                            (column, sources[column])
                            for column in table.primary_key
                        ),
                    )
                )
                resolved.add(relation.alias)
                pending.remove(relation)
                progressed = True
        if not progressed:
            return None
    return order


def _aggregate_column_type(aggregate: L.AggregateSpec, catalog: Catalog):
    if aggregate.function == "COUNT":
        return IntType()
    if aggregate.function == "AVG":
        return FloatType()
    assert aggregate.argument is not None
    table = catalog.table(aggregate.argument.table)
    return table.column(aggregate.argument.column).type


def _build_backing_table(
    name: str, spec: L.QuerySpec, catalog: Catalog
) -> Table:
    columns: List[Column] = []
    for group_column in spec.group_by:
        source = catalog.table(group_column.table).column(group_column.column)
        columns.append(Column(name=source.name, type=source.type, nullable=True))
    for aggregate in spec.aggregates:
        columns.append(
            Column(
                name=aggregate.output_name,
                type=_aggregate_column_type(aggregate, catalog),
                nullable=True,
            )
        )
    return Table(
        name=name,
        columns=columns,
        primary_key=tuple(c.column for c in spec.group_by),
        backing_view=name,
    )


def _build_order_index(
    spec: L.QuerySpec, order: Optional[ViewOrderSpec], backing_table: Table
) -> Optional[IndexDefinition]:
    if order is None:
        return None
    group_names = [c.column for c in spec.group_by]
    leading = [IndexColumn(c) for c in group_names[:-1]] + [
        IndexColumn(order.aggregate)
    ]
    full = leading + [
        IndexColumn(pk)
        for pk in backing_table.primary_key
        if pk not in {c.name for c in leading}
    ]
    return IndexDefinition(
        name=Catalog.index_name(backing_table.name, full),
        table=backing_table.name,
        columns=tuple(full),
    )
