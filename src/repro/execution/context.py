"""Execution strategies, context, and result types.

The PIQL execution engine supports three strategies (Section 8.5 /
Figure 12):

* **LAZY** — one tuple per key/value request, requests issued sequentially;
  this is how a traditional single-node iterator would behave.
* **SIMPLE** — uses the compiler's limit hints to fetch data in batches, but
  waits for each request before issuing the next.
* **PARALLEL** — uses limit hints *and* issues all of an operator's requests
  against the key/value store in parallel.

The strategy only changes how many round trips are paid and whether their
latencies add or overlap; the rows produced are identical, which the test
suite checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..kvstore.client import StorageClient
from ..schema.catalog import Catalog


class ExecutionStrategy(enum.Enum):
    """How remote operators issue their key/value store requests."""

    LAZY = "lazy"
    SIMPLE = "simple"
    PARALLEL = "parallel"


#: Internal tuple representation: relation alias -> column -> value.
InternalRow = Dict[str, Dict[str, Any]]


@dataclass
class ExecutionContext:
    """Everything an operator needs while executing one query."""

    client: StorageClient
    catalog: Catalog
    parameters: Dict[str, Any] = field(default_factory=dict)
    strategy: ExecutionStrategy = ExecutionStrategy.PARALLEL
    #: Whether this execution is one page of a PAGINATE query.  Fast paths
    #: that would bypass the scan's cursor bookkeeping (e.g. the COUNT
    #: fast path) must stand down for paginated executions.
    paginated: bool = False
    #: Scan positions to resume from (PAGINATE cursors): scan_id -> last key.
    resume_positions: Dict[str, bytes] = field(default_factory=dict)
    #: Scan positions observed during this execution (for the next cursor).
    new_positions: Dict[str, bytes] = field(default_factory=dict)
    #: Whether each scan ran out of data (no further pages).
    scan_exhausted: Dict[str, bool] = field(default_factory=dict)
    #: The client's tracer while tracing is enabled (``repro.obs.trace.Tracer``),
    #: else ``None``.  Operators open one ``operator`` span per plan node.
    tracer: Optional[Any] = None
    #: The client's live metric-counter mapping, cached here while tracing
    #: so operator spans can read operation deltas without re-resolving the
    #: ``client.stats.metrics`` chain per plan node.
    counters: Optional[Dict[str, float]] = None

    @property
    def batched(self) -> bool:
        """Whether fetches are planned batch-at-a-time.

        That is: dereference rounds fused across an operator's inputs,
        dereferencing stopped once a data stop is satisfied, index-only
        predicates pushed below the base-record fetch.  True for SIMPLE and
        PARALLEL; the Lazy executor of Figure 12 runs tuple-at-a-time (one
        request per tuple).  A function of the strategy alone — nothing to
        set, so no execution can contradict its strategy.
        """
        return self.strategy is not ExecutionStrategy.LAZY

    def parameter(self, name: str) -> Any:
        if name not in self.parameters:
            raise KeyError(
                f"query parameter {name!r} was not bound; "
                f"bound parameters: {sorted(self.parameters)}"
            )
        return self.parameters[name]


@dataclass
class QueryResult:
    """The outcome of executing one query (or one page of a paginated query)."""

    rows: List[Dict[str, Any]]
    latency_seconds: float
    operations: int
    rpcs: int
    cursor: Optional[str] = None
    has_more: bool = False

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1000.0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
