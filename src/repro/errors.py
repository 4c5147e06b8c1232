"""Exception hierarchy for the PIQL reproduction.

All library-specific errors derive from :class:`PiqlError` so that callers
can catch the whole family with a single ``except`` clause while still being
able to distinguish parse errors, planning errors, and runtime errors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class PiqlError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ParseError(PiqlError):
    """Raised when a PIQL statement cannot be parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Character offset into the source text where the error occurred, or
        ``None`` when the position is unknown.
    """

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SchemaError(PiqlError):
    """Raised for invalid DDL, unknown tables/columns, or constraint issues."""


class UnknownTableError(SchemaError):
    """Raised when a statement references a table that does not exist."""

    def __init__(self, table: str):
        self.table = table
        super().__init__(f"unknown table: {table!r}")


class UnknownColumnError(SchemaError):
    """Raised when a statement references a column that does not exist."""

    def __init__(self, column: str, table: Optional[str] = None):
        self.column = column
        self.table = table
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {column!r}{where}")


class PlanningError(PiqlError):
    """Raised when the optimizer cannot produce a plan at all."""


class NotScaleIndependentError(PlanningError):
    """Raised when no bounded (scale-independent) plan exists for a query.

    This is the error described in Section 5.2.3 of the paper ("ERROR(Not
    scale-independent)").  It carries enough structure for the Performance
    Insight Assistant to explain the problem and suggest fixes: the relation
    whose cardinality is unbounded and candidate attributes on which a
    ``CARDINALITY LIMIT`` would make the plan bounded.
    """

    def __init__(
        self,
        message: str,
        relation: Optional[str] = None,
        candidate_attributes: Optional[Sequence[str]] = None,
        suggestions: Optional[Sequence[str]] = None,
    ):
        self.relation = relation
        self.candidate_attributes = list(candidate_attributes or [])
        self.suggestions = list(suggestions or [])
        super().__init__(message)

    def explain(self) -> str:
        """Return a multi-line human readable explanation with suggestions."""
        lines: List[str] = [str(self)]
        if self.relation:
            lines.append(f"  unbounded relation: {self.relation}")
        if self.candidate_attributes:
            attrs = ", ".join(self.candidate_attributes)
            lines.append(
                "  consider adding a CARDINALITY LIMIT on one of: " + attrs
            )
        for suggestion in self.suggestions:
            lines.append("  suggestion: " + suggestion)
        return "\n".join(lines)


class ExecutionError(PiqlError):
    """Raised when a physical plan fails during execution."""


class BoundViolationError(ExecutionError):
    """Raised when a query's observed operations exceed its static bound.

    The runtime bound auditor raises this (in strict mode) when the live
    operation count of a finished query is larger than the scale-independence
    bound the optimizer proved for it — the invariant at the heart of the
    paper, now checked on every execution rather than only in benchmarks.
    """

    def __init__(
        self,
        observed_operations: int,
        bound_operations: int,
        sql: Optional[str] = None,
    ):
        self.observed_operations = observed_operations
        self.bound_operations = bound_operations
        self.sql = sql
        message = (
            f"scale-independence violation: executed {observed_operations} "
            f"key/value operations but the static bound is {bound_operations}"
        )
        if sql:
            message += f" (query: {sql.strip()!r})"
        super().__init__(message)


class ConstraintViolationError(ExecutionError):
    """Raised when an insert/update violates a declared constraint."""

    def __init__(self, message: str, constraint: Optional[str] = None):
        self.constraint = constraint
        super().__init__(message)


class CardinalityViolationError(ConstraintViolationError):
    """Raised when an insert or update would exceed a ``CARDINALITY LIMIT``."""


class UniquenessViolationError(ConstraintViolationError):
    """Raised when an insert would duplicate a primary key or unique index."""


class CursorError(ExecutionError):
    """Raised for invalid pagination cursors (corrupt or mismatched query)."""


class UnavailableError(ExecutionError):
    """Raised when the replicated store cannot serve an operation at all.

    Too many of the key's replicas are down (or were removed) for the
    configured consistency level.  The engine's retry path catches this
    family: transient failures (a node mid-recovery) heal, persistent ones
    surface to the caller as a typed error rather than a generic crash.
    """


class RpcTimeoutError(UnavailableError):
    """Raised when an RPC's reply did not arrive within the client's timeout.

    The message-level fault plane turns a dropped message into this error
    (a drop is indistinguishable from an arbitrarily slow reply), and the
    resilience layer raises it when a reply is slower than the per-query
    timeout derived from the prediction model's p99 envelope.  It subclasses
    :class:`UnavailableError` so every existing retry/failure-accounting
    path treats it as a transient store failure.
    """

    def __init__(
        self,
        operation: str,
        namespace: str,
        node_id: int = -1,
        timeout_seconds: Optional[float] = None,
    ):
        self.operation = operation
        self.namespace = namespace
        self.node_id = node_id
        self.timeout_seconds = timeout_seconds
        where = f" (node {node_id})" if node_id >= 0 else ""
        budget = (
            f" after {timeout_seconds * 1000.0:.0f} ms"
            if timeout_seconds is not None
            else ""
        )
        super().__init__(
            f"{operation} on namespace {namespace!r} timed out{budget}{where}"
        )


class RetryBudgetExhaustedError(UnavailableError):
    """Raised when the client's token-bucket retry budget is empty.

    Refusing to retry is what stops a retry storm: once the budget is
    drained the failure surfaces immediately instead of re-charging the
    surviving replicas.
    """

    def __init__(self, operation: str, attempts: int):
        self.operation = operation
        self.attempts = attempts
        super().__init__(
            f"retry budget exhausted for {operation!r} after "
            f"{attempts} attempt(s)"
        )


class CircuitOpenError(UnavailableError):
    """Raised when every candidate replica's circuit breaker is open.

    A client whose breakers all report a failing store fails fast — no RPC
    is issued and no retry budget is spent — until a half-open probe
    succeeds somewhere.
    """

    def __init__(self, open_nodes: Sequence[int]):
        self.open_nodes = list(open_nodes)
        super().__init__(
            f"circuit breakers open for all candidate nodes {self.open_nodes}"
        )


class QuorumNotMetError(UnavailableError):
    """Raised when fewer replicas answered than the R/W quorum requires."""

    def __init__(
        self,
        operation: str,
        namespace: str,
        needed: int,
        available: int,
    ):
        self.operation = operation
        self.namespace = namespace
        self.needed = needed
        self.available = available
        super().__init__(
            f"{operation} on namespace {namespace!r} needs {needed} replica(s), "
            f"only {available} up"
        )


class PredictionError(PiqlError):
    """Raised by the SLO prediction framework (e.g. untrained models)."""


class ObservabilityError(PiqlError):
    """Raised by the observability layer (metrics, telemetry, exporters)."""


class HistogramMergeError(ObservabilityError):
    """Raised when two bounded histograms cannot be merged.

    Merging reservoirs is only statistically sound when both operands are
    genuine sample reservoirs; an operand with a non-positive capacity (or
    an internally inconsistent one holding more samples than observations)
    would poison the roll-up silently, so the merge refuses instead.
    """

    def __init__(self, reason: str):
        super().__init__(f"cannot merge histograms: {reason}")
