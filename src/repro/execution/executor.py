"""The query executor: runs compiled plans and measures their cost.

The executor resumes pagination cursors, runs the physical plan under its
view's :class:`ExecutionStrategy`, and reports both the rows and the
simulated cost of the execution (latency, key/value operations, round trips)
— the quantities all of the paper's experiments are built on.  Parameters
arrive already bound and checked (:func:`repro.engine.query.bind_parameters`).

The strategy is a property of the database view, fixed when the view is
built (``PiqlDatabase.new_client(strategy=...)``; a fresh database runs
PARALLEL): one view, one strategy, so nothing on the way down from
``PreparedQuery.execute`` carries it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import CursorError
from ..kvstore.client import StorageClient
from ..obs.audit import BoundAuditor
from ..optimizer.optimizer import OptimizedQuery
from ..plans import physical as P
from ..plans.printer import plan_to_string
from ..schema.catalog import Catalog
from .context import ExecutionContext, ExecutionStrategy, QueryResult
from .cursor import PaginationCursor, maybe_deserialize, query_fingerprint
from .operators import execute_output


class QueryExecutor:
    """Executes :class:`OptimizedQuery` plans against the key/value store.

    Every finished query is routed through ``auditor`` (structured events,
    span annotation, strict/serving policy): the bound is checked in one
    place, :meth:`~repro.obs.audit.BoundAuditor.observe_query`.
    """

    def __init__(
        self,
        client: StorageClient,
        catalog: Catalog,
        auditor: BoundAuditor,
        strategy: ExecutionStrategy,
    ):
        self.client = client
        self.catalog = catalog
        self.auditor = auditor
        self.strategy = strategy

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: OptimizedQuery,
        parameters: Dict[str, Any],
        cursor: Optional[object] = None,
    ) -> QueryResult:
        """Execute a compiled query (or the next page of a paginated one).

        ``parameters`` is the dict :func:`repro.engine.query.bind_parameters`
        built for this query; it is read, never copied or changed.
        """
        strategy = self.strategy
        # Only pagination reads the fingerprint: it binds a page's cursor to
        # the query, plan and the values its predicates read, so a cursor
        # replayed under other values fails here, before any request.  What
        # leaves the result set alone stays out: names the query does not
        # use, a list sent as a tuple, and the page size (the PAGINATE
        # count: a later page may ask for more or fewer rows, and still
        # starts where the last one stopped).
        fingerprint = ""
        if query.is_paginated:
            values = {}
            for name, kind, _ in query.bindings:
                if kind != "count":
                    value = parameters.get(name)
                    values[name] = tuple(value) if isinstance(value, list) else value
            fingerprint = query_fingerprint(
                query.sql, plan_to_string(query.physical_plan), values
            )
        resume_positions: Dict[str, bytes] = {}
        previous = maybe_deserialize(cursor)
        if previous is not None:
            if not query.is_paginated:
                raise CursorError("a cursor was supplied for a non-paginated query")
            previous.check_matches(fingerprint)
            resume_positions = dict(previous.positions)

        tracer = self.client.tracer
        context = ExecutionContext(
            client=self.client,
            catalog=self.catalog,
            parameters=parameters,
            strategy=strategy,
            paginated=query.is_paginated,
            resume_positions=resume_positions,
            tracer=tracer,
        )
        root_span = None
        if tracer is not None:
            root_span = tracer.start_span(
                "query", "query", sql=query.sql, strategy=strategy.value
            )
        try:
            result = self._measure(query.physical_plan, context)
        except Exception as exc:
            # Errored executions never reach the auditor, so the flight
            # recorder would miss exactly the traces it exists to keep —
            # close the root span, mark it, and offer it directly.
            if root_span is not None:
                tracer.end_span(root_span)
                root_span.attributes["error"] = type(exc).__name__
                root_span.attributes["latency_seconds"] = root_span.duration
                recorder = self.auditor.recorder
                if recorder is not None:
                    recorder.observe_error(query, root_span)
            raise
        if root_span is not None:
            tracer.end_span(root_span)
            attributes = root_span.attributes
            attributes["operations"] = result.operations
            attributes["rpcs"] = result.rpcs
            attributes["latency_seconds"] = result.latency_seconds
            attributes["rows"] = len(result.rows)
            if query.bound is not None:
                attributes["bound"] = query.bound.max_operations

        # The static bound assumes the executor uses the compiler's limit
        # hints to batch requests; the Lazy baseline deliberately ignores
        # them (one request per tuple), so it is exempt from enforcement.
        if strategy is not ExecutionStrategy.LAZY:
            self.auditor.observe_query(
                query, result.operations, result.latency_seconds, span=root_span
            )

        if query.is_paginated:
            positions = dict(resume_positions)
            positions.update(context.new_positions)
            exhausted = all(context.scan_exhausted.values()) if context.scan_exhausted else True
            result.has_more = not exhausted
            result.cursor = PaginationCursor(
                query_fingerprint=fingerprint,
                positions=positions,
                exhausted=exhausted,
            ).serialize()
        return result

    def execute_physical_plan(
        self,
        plan: P.PhysicalOperator,
        parameters: Dict[str, Any],
    ) -> QueryResult:
        """Execute a bare physical plan (no cursor or bound handling).

        Used by the cost-based-optimizer baseline of Section 8.3, whose plans
        are deliberately *not* scale-independent and therefore have no static
        bound to enforce.
        """
        return self._measure(
            plan,
            ExecutionContext(
                client=self.client,
                catalog=self.catalog,
                parameters=parameters,
                strategy=self.strategy,
                tracer=self.client.tracer,
            ),
        )

    def _measure(
        self, plan: P.PhysicalOperator, context: ExecutionContext
    ) -> QueryResult:
        """Run ``plan``; report its rows with what it cost the client."""
        client = self.client
        counters = client.stats.metrics.live_counters
        operations_before = counters.get("client.operations", 0)
        rpcs_before = counters.get("client.rpcs", 0)
        time_before = client.clock.now
        rows = execute_output(plan, context)
        return QueryResult(
            rows=rows,
            latency_seconds=client.clock.now - time_before,
            operations=counters.get("client.operations", 0) - operations_before,
            rpcs=counters.get("client.rpcs", 0) - rpcs_before,
        )
