"""The PIQL optimizer facade.

``PiqlOptimizer.optimize`` runs the whole pipeline of Section 5:

1. parse (if given SQL text) and analyze the query against the catalog,
2. Phase I — linear join ordering, predicate push-down, stop / data-stop
   insertion and push-down (:mod:`repro.optimizer.phase1`),
3. Phase II — physical operator selection with the bounded-remote-operator
   invariant (:mod:`repro.optimizer.phase2`),
4. static operation-bound computation (:mod:`repro.plans.bounds`), and
5. index selection — the list of secondary indexes the plan requires
   (Section 5.3), which the engine creates automatically.

The result is an :class:`OptimizedQuery`, which carries everything the
execution engine and the SLO prediction model need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple, Union

from ..errors import NotScaleIndependentError, PlanningError
from ..plans import logical as L
from ..plans import physical as P
from ..plans.bounds import PlanBound, compute_bound
from ..plans.builder import LogicalPlanBuilder
from ..plans.printer import plan_to_string
from ..schema.catalog import Catalog
from ..schema.ddl import IndexDefinition
from ..sql import ast
from ..sql.parser import parse_select
from ..views.rewrite import ViewRewriter
from .phase1 import PreparedPlan, StopOperatorPrepare
from .phase2 import GeneratedPlan, PlanGenerator


@dataclass
class OptimizedQuery:
    """A compiled, scale-independent PIQL query."""

    sql: str
    statement: ast.SelectStatement
    spec: L.QuerySpec
    prepared: PreparedPlan
    physical_plan: P.PhysicalOperator
    required_indexes: List[IndexDefinition] = field(default_factory=list)
    bound: Optional[PlanBound] = None
    #: Name of the materialized view this query was rewritten against, when
    #: the precomputation phase rescued an otherwise-rejected aggregate.
    view_used: Optional[str] = None

    @property
    def logical_plan(self) -> L.LogicalOperator:
        """The prepared (pushed-down) logical plan, Figure 3(c)."""
        return self.prepared.logical_plan

    @property
    def operation_bound(self) -> int:
        """Maximum number of key/value store operations per execution."""
        if self.bound is None:
            raise PlanningError("query has no computed bound")
        return self.bound.max_operations

    @property
    def is_paginated(self) -> bool:
        return self.spec.stop is not None and self.spec.stop.paginate

    @cached_property
    def bindings(self) -> Tuple[Tuple[str, Optional[str], Optional[int]], ...]:
        """What an execution must bind: ``(name, kind, declared maximum)``.

        ``kind`` is ``"count"`` for the LIMIT / PAGINATE parameter, ``"list"``
        for an IN list and ``None`` for a plain value.  Worked out once per
        compiled plan; :func:`repro.engine.query.bind_parameters` checks
        every execution's parameters against it before anything runs.
        """
        statement = self.statement
        count = statement.limit.count if statement.limit is not None else None
        lists = [
            predicate.values
            for predicate in statement.where
            if isinstance(predicate, ast.InPredicate)
        ]
        return tuple(
            (
                parameter.name,
                "count" if parameter is count
                else "list" if any(parameter is values for values in lists)
                else None,
                parameter.max_cardinality,
            )
            for parameter in statement.parameters()
        )

    def describe(self) -> str:
        """Multi-line description: logical plan, physical plan, bounds, indexes."""
        lines = [
            "-- logical plan --",
            plan_to_string(self.logical_plan),
            "-- physical plan --",
            plan_to_string(self.physical_plan),
        ]
        if self.bound is not None:
            lines.append(
                f"-- bound: {self.bound.max_operations} key/value operations, "
                f"{self.bound.max_tuples} tuples --"
            )
        if self.required_indexes:
            lines.append("-- required indexes --")
            for index in self.required_indexes:
                lines.append("  " + index.describe())
        return "\n".join(lines)


class PiqlOptimizer:
    """Compiles PIQL SELECT statements into bounded physical plans."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._builder = LogicalPlanBuilder(catalog)
        self._phase1 = StopOperatorPrepare(catalog)
        self._phase2 = PlanGenerator(catalog)
        self._rewriter = ViewRewriter(catalog)

    def optimize(
        self, query: Union[str, ast.SelectStatement]
    ) -> OptimizedQuery:
        """Compile ``query`` (SQL text or a parsed statement) into a plan.

        Queries the normal Phase I/II pipeline rejects — and queries ordered
        by an aggregate output, which no bounded base-table plan can satisfy
        — get one more chance: the precomputation phase matches them against
        the catalog's materialized views and, on a hit, compiles a bounded
        scan of the view instead (the paper's Section 4.3 escape hatch).

        Raises :class:`~repro.errors.NotScaleIndependentError` when no
        bounded plan exists; the exception carries suggestions for the
        Performance Insight Assistant.
        """
        if isinstance(query, str):
            sql = query
            statement = parse_select(query)
        else:
            sql = ""
            statement = query
        spec = self._builder.build_spec(statement)

        rejection: Optional[NotScaleIndependentError] = None
        if not spec.aggregate_sort_keys:
            try:
                return self._compile(sql, statement, spec, spec)
            except NotScaleIndependentError as error:
                rejection = error

        match = self._rewriter.rewrite(statement, spec)
        if match is not None:
            rewritten_statement, view = match
            rewritten_spec = self._builder.build_spec(rewritten_statement)
            try:
                compiled = self._compile(
                    sql, statement, spec, rewritten_spec
                )
                compiled.view_used = view.name
                return compiled
            except NotScaleIndependentError:
                pass  # the rewrite itself was unbounded; fall through

        if rejection is not None:
            raise rejection
        ordering = ", ".join(
            f"{name} {'ASC' if ascending else 'DESC'}"
            for name, ascending in spec.aggregate_sort_keys
        )
        raise NotScaleIndependentError(
            f"ordering by the aggregate output(s) {ordering} requires ranking "
            "every group, which cannot be bounded by any base-table plan "
            "(Section 4.3); precompute it instead",
            relation=spec.relations[0].alias,
            suggestions=[
                "CREATE MATERIALIZED VIEW ... GROUP BY the query's grouping "
                f"and partition columns ORDER BY {ordering} LIMIT k",
            ],
        )

    def _compile(
        self,
        sql: str,
        statement: ast.SelectStatement,
        spec: L.QuerySpec,
        plan_spec: L.QuerySpec,
    ) -> OptimizedQuery:
        """Run Phase I/II + bounds over ``plan_spec`` (possibly rewritten)."""
        prepared = self._phase1.prepare(plan_spec)
        generated: GeneratedPlan = self._phase2.generate(prepared)
        bound = compute_bound(generated.physical_plan)
        return OptimizedQuery(
            sql=sql,
            statement=statement,
            spec=spec,
            prepared=prepared,
            physical_plan=generated.physical_plan,
            required_indexes=generated.required_indexes,
            bound=bound,
        )

    def initial_logical_plan(
        self, query: Union[str, ast.SelectStatement]
    ) -> L.LogicalOperator:
        """The naive pre-optimization logical plan (Figure 3(b)); for diagnostics."""
        statement = parse_select(query) if isinstance(query, str) else query
        spec = self._builder.build_spec(statement)
        return self._builder.build_initial_plan(spec)

    def prepared_logical_plan(
        self, query: Union[str, ast.SelectStatement]
    ) -> L.LogicalOperator:
        """The Phase-I logical plan with stops pushed down (Figure 3(c))."""
        statement = parse_select(query) if isinstance(query, str) else query
        spec = self._builder.build_spec(statement)
        return self._phase1.prepare(spec).logical_plan
