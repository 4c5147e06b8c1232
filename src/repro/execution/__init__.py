"""Execution engine: strategies, cursors, operator interpreter, executor."""

from .context import ExecutionContext, ExecutionStrategy, QueryResult
from .cursor import PaginationCursor, query_fingerprint
from .executor import QueryExecutor
from .operators import execute_output, execute_plan

__all__ = [
    "ExecutionContext",
    "ExecutionStrategy",
    "PaginationCursor",
    "QueryExecutor",
    "QueryResult",
    "execute_output",
    "execute_plan",
    "query_fingerprint",
]
