"""The query executor: runs compiled plans and measures their cost.

The executor binds parameters, resumes pagination cursors, runs the physical
plan under a chosen :class:`ExecutionStrategy`, and reports both the rows
and the simulated cost of the execution (latency, key/value operations,
round trips) — the quantities all of the paper's experiments are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import BoundViolationError, CursorError, ExecutionError
from ..kvstore.client import StorageClient
from ..obs.audit import BoundAuditor
from ..optimizer.optimizer import OptimizedQuery
from ..plans import physical as P
from ..plans.printer import plan_to_string
from ..schema.catalog import Catalog
from .context import ExecutionContext, ExecutionStrategy, QueryResult
from .cursor import PaginationCursor, maybe_deserialize, query_fingerprint
from .operators import execute_output


@dataclass
class ExecutorConfig:
    """Executor-wide settings."""

    strategy: ExecutionStrategy = ExecutionStrategy.PARALLEL
    #: When true, executing a query that exceeds its static operation bound
    #: raises instead of silently continuing.  Tests enable this; benchmark
    #: harnesses keep it on as a safety net.
    enforce_bounds: bool = True
    #: Runtime bound auditor.  When set, every finished query is routed
    #: through it (structured events, span annotation, strict/serving
    #: policy); when ``None`` the executor falls back to its inline check.
    auditor: Optional[BoundAuditor] = None


class QueryExecutor:
    """Executes :class:`OptimizedQuery` plans against the key/value store."""

    def __init__(
        self,
        client: StorageClient,
        catalog: Catalog,
        strategy: ExecutionStrategy = ExecutionStrategy.PARALLEL,
        enforce_bounds: bool = True,
        auditor: Optional[BoundAuditor] = None,
    ):
        self.client = client
        self.catalog = catalog
        self.config = ExecutorConfig(
            strategy=strategy,
            enforce_bounds=enforce_bounds,
            auditor=auditor,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: OptimizedQuery,
        parameters: Optional[Dict[str, Any]] = None,
        cursor: Optional[object] = None,
        strategy: Optional[ExecutionStrategy] = None,
    ) -> QueryResult:
        """Execute a compiled query (or the next page of a paginated one)."""
        strategy = strategy or self.config.strategy
        # Only pagination reads the fingerprint: it binds a page's cursor to
        # the query and plan that issued it.
        fingerprint = self._fingerprint(query) if query.is_paginated else ""
        resume_positions: Dict[str, bytes] = {}
        previous = maybe_deserialize(cursor)
        if previous is not None:
            if not query.is_paginated:
                raise CursorError("a cursor was supplied for a non-paginated query")
            previous.check_matches(fingerprint)
            resume_positions = dict(previous.positions)

        context = ExecutionContext(
            client=self.client,
            catalog=self.catalog,
            parameters=dict(parameters or {}),
            strategy=strategy,
            paginated=query.is_paginated,
            resume_positions=resume_positions,
        )

        tracer = self.client.tracer
        context.tracer = tracer

        counters = self.client.stats.metrics.live_counters
        operations_before = counters.get("client.operations", 0)
        rpcs_before = counters.get("client.rpcs", 0)
        time_before = self.client.clock.now
        root_span = None
        if tracer is not None:
            root_span = tracer.start_span(
                "query", "query", sql=query.sql, strategy=strategy.value
            )
        try:
            rows = execute_output(query.physical_plan, context)
        except Exception as exc:
            # Errored executions never reach the auditor, so the flight
            # recorder would miss exactly the traces it exists to keep —
            # close the root span, mark it, and offer it directly.
            if root_span is not None:
                tracer.end_span(root_span)
                root_span.attributes["error"] = type(exc).__name__
                root_span.attributes["latency_seconds"] = (
                    self.client.clock.now - time_before
                )
                auditor = self.config.auditor
                recorder = (
                    getattr(auditor, "recorder", None)
                    if auditor is not None
                    else None
                )
                if recorder is not None:
                    recorder.observe_error(query, root_span)
            raise
        if root_span is not None:
            tracer.end_span(root_span)
        operations = counters.get("client.operations", 0) - operations_before
        rpcs = counters.get("client.rpcs", 0) - rpcs_before
        latency = self.client.clock.now - time_before
        if root_span is not None:
            attributes = root_span.attributes
            attributes["operations"] = operations
            attributes["rpcs"] = rpcs
            attributes["latency_seconds"] = latency
            attributes["rows"] = len(rows)
            if query.bound is not None:
                attributes["bound"] = query.bound.max_operations

        # The static bound assumes the executor uses the compiler's limit
        # hints to batch requests; the Lazy baseline deliberately ignores
        # them (one request per tuple), so it is exempt from enforcement.
        auditor = self.config.auditor
        if strategy is ExecutionStrategy.LAZY:
            pass
        elif auditor is not None:
            auditor.observe_query(
                query,
                operations,
                latency,
                span=root_span,
                enforce=self.config.enforce_bounds,
            )
        elif (
            self.config.enforce_bounds
            and query.bound is not None
            and operations > query.bound.max_operations
        ):
            raise BoundViolationError(
                operations, query.bound.max_operations, query.sql
            )

        next_cursor: Optional[str] = None
        has_more = False
        if query.is_paginated:
            positions = dict(resume_positions)
            positions.update(context.new_positions)
            exhausted = all(context.scan_exhausted.values()) if context.scan_exhausted else True
            has_more = not exhausted
            next_cursor = PaginationCursor(
                query_fingerprint=fingerprint,
                positions=positions,
                exhausted=exhausted,
            ).serialize()

        return QueryResult(
            rows=rows,
            latency_seconds=latency,
            operations=operations,
            rpcs=rpcs,
            cursor=next_cursor,
            has_more=has_more,
        )

    def execute_all_pages(
        self,
        query: OptimizedQuery,
        parameters: Optional[Dict[str, Any]] = None,
        max_pages: int = 1000,
        strategy: Optional[ExecutionStrategy] = None,
    ):
        """Iterate every page of a paginated query (test/tooling helper)."""
        if not query.is_paginated:
            yield self.execute(query, parameters, strategy=strategy)
            return
        cursor: Optional[str] = None
        for _ in range(max_pages):
            result = self.execute(query, parameters, cursor=cursor, strategy=strategy)
            yield result
            if not result.has_more:
                return
            cursor = result.cursor
        raise ExecutionError(f"pagination did not terminate within {max_pages} pages")

    def execute_physical_plan(
        self,
        plan: P.PhysicalOperator,
        parameters: Optional[Dict[str, Any]] = None,
        strategy: Optional[ExecutionStrategy] = None,
    ) -> QueryResult:
        """Execute a bare physical plan (no cursor or bound handling).

        Used by the cost-based-optimizer baseline of Section 8.3, whose plans
        are deliberately *not* scale-independent and therefore have no static
        bound to enforce.
        """
        context = ExecutionContext(
            client=self.client,
            catalog=self.catalog,
            parameters=dict(parameters or {}),
            strategy=strategy or self.config.strategy,
            tracer=self.client.tracer,
        )
        counters = self.client.stats.metrics.live_counters
        operations_before = counters.get("client.operations", 0)
        rpcs_before = counters.get("client.rpcs", 0)
        time_before = self.client.clock.now
        rows = execute_output(plan, context)
        return QueryResult(
            rows=rows,
            latency_seconds=self.client.clock.now - time_before,
            operations=counters.get("client.operations", 0) - operations_before,
            rpcs=counters.get("client.rpcs", 0) - rpcs_before,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(query: OptimizedQuery) -> str:
        return query_fingerprint(query.sql, plan_to_string(query.physical_plan))

    @staticmethod
    def driving_scans(query: OptimizedQuery) -> list:
        """The index scans of a plan (diagnostics for pagination)."""
        return P.find_scans(query.physical_plan)
