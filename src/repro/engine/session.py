"""Asynchronous sessions: futures, streaming cursors, and query pipelining.

The paper's performance argument (Section 7.1) is that bounded queries let
the embedded client execute their key/value operations in parallel — but a
fully synchronous ``PiqlDatabase.execute`` still pays the latencies of
*independent queries* in sequence.  A real web interaction (the TPC-W home
page, a SCADr home-page render) issues several independent queries per page,
and an asynchronous client library overlaps them.

A :class:`Session` is one application-server conversation with the database
on one simulated clock:

* :meth:`Session.submit` is **non-blocking**: it resolves the query,
  snapshots the parameters, returns a :class:`QueryFuture`, and charges
  nothing.
* :meth:`Session.gather` resolves a set of futures **concurrently**: every
  branch starts at the same simulated instant and the session clock advances
  by the *maximum* of the branch latencies — the same composition rule the
  :class:`~repro.kvstore.client.StorageClient` already applies to a parallel
  batch of key/value requests, lifted to whole queries.  While a gather is
  in flight the storage client additionally coalesces duplicate point reads
  issued by different branches into one batched fetch.
* results come back as a streaming :class:`ResultCursor` — pages of a
  ``PAGINATE`` query are fetched lazily as the cursor is iterated, with
  ``fetch_all()`` for callers that want the fully materialised rows.

Resolving a future *outside* a gather (``future.result()`` on a pending
future) runs it inline and charges the latency sequentially, exactly like
the blocking :meth:`Session.execute`.

**One way in.**  Every page of every query — ``PreparedQuery.execute`` and
``pages``, ``PiqlDatabase.execute``, a submitted future, a cursor's later
pages — reaches ``QueryExecutor.execute`` through one function,
:meth:`Session._execute_page`, and only through it
(``tests/engine/test_query_funnel.py`` walks the syntax trees).  That is
where the parameters are bound and checked against what the query text
declares (:func:`~repro.engine.query.bind_parameters`, before any key/value
operation), and where the view's resilience policy — deadline, retries,
breakers — takes over
(:meth:`~repro.resilience.policy.ResiliencePolicy.execute_page`).  The
blocking ``PreparedQuery.execute`` calls it directly: no future, no cursor,
no closure, four frames down to the executor.

Nothing on this path chooses *how* a plan runs (LAZY, SIMPLE or PARALLEL,
Figure 12): that is fixed per database view by
:meth:`~repro.engine.database.PiqlDatabase.new_client` and read by the
executor (see :mod:`repro.execution.executor`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..errors import ExecutionError
from ..execution.context import QueryResult
from ..kvstore.simtime import SimClock
from ..optimizer.optimizer import OptimizedQuery
from .query import PreparedQuery, bind_parameters

#: How many pages a cursor may hold before a draining iteration gives up:
#: a safety valve against a paginated plan that never runs dry.
MAX_PAGES = 1000


class CallOutcome:
    """Result of a non-query piece of database work (e.g. a block of writes)."""

    __slots__ = ("value", "latency_seconds", "operations")

    def __init__(self, value: Any, latency_seconds: float, operations: int):
        self.value = value
        self.latency_seconds = latency_seconds
        self.operations = operations

    @classmethod
    def measure(cls, db: Any, fn: Callable[[Any], Any]) -> "CallOutcome":
        """Run ``fn(db)``; its latency and operation count are read off the
        view's clock and client statistics."""
        client = db.client
        operations_before = client.stats.operations
        started = client.clock.now
        value = fn(db)
        return cls(
            value,
            client.clock.now - started,
            client.stats.operations - operations_before,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CallOutcome(latency={self.latency_seconds:.6f}s, "
            f"operations={self.operations})"
        )


class QueryFuture:
    """A handle on one submitted-but-not-necessarily-executed query.

    Futures are created by :meth:`Session.submit` / :meth:`Session.call` and
    resolved either by :meth:`Session.gather` (concurrently with their
    siblings) or by :meth:`result` (inline, sequentially).  A future that
    failed stores its exception and re-raises it from :meth:`result`.
    """

    _PENDING = "pending"
    _DONE = "done"
    _FAILED = "failed"

    def __init__(self, session: "Session", label: str, thunk: Callable[[], Any]):
        self.session = session
        self.label = label
        self._thunk = thunk
        self._state = self._PENDING
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: Simulated seconds this branch took, measured on the clock it ran
        #: under (a scratch branch clock inside a gather, the session clock
        #: otherwise).  Set when the future resolves.
        self.latency_seconds: float = 0.0
        #: Key/value operations the branch issued.  Set when it resolves.
        self.operations: int = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether the future has been resolved (successfully or not)."""
        return self._state is not self._PENDING

    def exception(self) -> Optional[BaseException]:
        """The stored failure, or ``None``."""
        return self._error

    def result(self) -> Any:
        """The branch's result, executing it inline now if still pending.

        Inline execution charges the session clock sequentially — this is
        the blocking path.  Use :meth:`Session.gather` to overlap several
        pending futures instead.
        """
        if self._state is self._PENDING:
            self.session._resolve_inline(self)
        if self._state is self._FAILED:
            raise self._error  # type: ignore[misc]
        return self._value

    # ------------------------------------------------------------------
    # Internal resolution (called by the session)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        if self._state is not self._PENDING:
            raise ExecutionError(f"future {self.label!r} was already resolved")
        try:
            self._value = self._thunk()
        except BaseException as error:  # noqa: BLE001 - stored, re-raised later
            self._state = self._FAILED
            self._error = error
        else:
            self._state = self._DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryFuture({self.label!r}, {self._state})"


class ResultCursor:
    """A streaming view of one query's results.

    The first page is fetched when the cursor is built, which is when the
    query executes (inside a gather or inline); further pages of a
    ``PAGINATE`` query are fetched lazily as the cursor is iterated, each
    fetch charged sequentially to the session clock at the moment it
    happens.  Non-paginated queries have exactly one page.  Every fetch is
    the same call into :meth:`Session._execute_page`.

    Accounting properties (``latency_seconds``, ``operations``, ``rpcs``)
    aggregate over the pages fetched *so far*; ``to_query_result()`` returns
    the first page as a classic :class:`QueryResult`.
    """

    def __init__(
        self,
        session: "Session",
        optimized: OptimizedQuery,
        parameters: Optional[Dict[str, Any]],
        kwargs: Optional[Dict[str, Any]],
        cursor: Optional[object],
    ):
        self._session = session
        self._optimized = optimized
        self._parameters = parameters
        self._kwargs = kwargs
        self._pages: List[QueryResult] = [self._fetch(cursor)]

    # ------------------------------------------------------------------
    # Introspection / compatibility
    # ------------------------------------------------------------------
    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The first page's rows (the classic ``QueryResult.rows``)."""
        return self._pages[0].rows

    @property
    def latency_seconds(self) -> float:
        """Total simulated latency of the pages fetched so far."""
        return sum(page.latency_seconds for page in self._pages)

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1000.0

    @property
    def operations(self) -> int:
        """Total key/value operations of the pages fetched so far."""
        return sum(page.operations for page in self._pages)

    @property
    def rpcs(self) -> int:
        return sum(page.rpcs for page in self._pages)

    @property
    def pages_fetched(self) -> int:
        return len(self._pages)

    @property
    def has_more(self) -> bool:
        """Whether the store may hold further pages beyond those fetched."""
        return self._pages[-1].has_more

    @property
    def cursor(self) -> Optional[str]:
        """Serialisable resumption token after the last fetched page."""
        return self._pages[-1].cursor

    def to_query_result(self) -> QueryResult:
        """The first page as a classic eager :class:`QueryResult`."""
        return self._pages[0]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _fetch(self, cursor: Optional[object]) -> QueryResult:
        return self._session._execute_page(
            self._optimized, self._parameters, self._kwargs, cursor
        )

    def pages(self) -> Iterator[QueryResult]:
        """Iterate pages: already-fetched ones first, then lazily from the
        store, up to :data:`MAX_PAGES` in all."""
        index = 0
        while True:
            while index < len(self._pages):
                yield self._pages[index]
                index += 1
            last = self._pages[-1]
            if not last.has_more:
                return
            if len(self._pages) >= MAX_PAGES:
                raise ExecutionError(
                    f"pagination did not terminate within {MAX_PAGES} pages"
                )
            self._pages.append(self._fetch(last.cursor))

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        """Iterate rows lazily across pages (fetching pages on demand)."""
        for page in self.pages():
            for row in page.rows:
                yield row

    def fetch_all(self) -> List[Dict[str, Any]]:
        """Materialise every row of every page (drains the stream)."""
        return list(self)

    def __len__(self) -> int:
        """Rows fetched so far (does not trigger fetches)."""
        return sum(len(page.rows) for page in self._pages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCursor(pages={len(self._pages)}, rows_so_far={len(self)}, "
            f"has_more={self.has_more})"
        )


#: What :meth:`Session.submit` accepts as a query.
Submittable = Union[str, PreparedQuery, OptimizedQuery]


class Session:
    """One asynchronous conversation with a :class:`PiqlDatabase` view.

    Sessions are cheap: they hold no state of their own beyond a reference
    to the database view whose clock and storage client they charge, so a
    database (or an emulated application server) can create as many as it
    likes.  All sessions of one view share that view's timeline.
    """

    def __init__(self, db: Any):
        self.db = db

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimClock:
        """The simulated clock this session charges (the view's clock)."""
        return self.db.client.clock

    @property
    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _resolve_optimized(self, query: Submittable) -> OptimizedQuery:
        if isinstance(query, str):
            return self.db.prepare(query).optimized
        if isinstance(query, PreparedQuery):
            return query.optimized
        if isinstance(query, OptimizedQuery):
            return query
        raise ExecutionError(
            f"cannot submit {type(query).__name__}: expected SQL text, a "
            f"PreparedQuery, or an OptimizedQuery"
        )

    def submit(
        self,
        query: Submittable,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        label: Optional[str] = None,
        **kwargs: Any,
    ) -> QueryFuture:
        """Queue one query for execution; returns immediately.

        Nothing is charged to the session clock until the future resolves —
        concurrently via :meth:`gather`, or inline via ``future.result()``.
        Parameters may be a dict, keyword arguments, or both (keywords win).
        """
        optimized = self._resolve_optimized(query)
        if parameters:
            # The caller may reuse its dict before the future resolves.
            parameters = dict(parameters)
        name = label or (optimized.sql.split(None, 1)[0] if optimized.sql else "query")

        def thunk() -> ResultCursor:
            return ResultCursor(self, optimized, parameters, kwargs, None)

        return QueryFuture(self, name, thunk)

    def call(
        self,
        fn: Callable[[Any], Any],
        *,
        label: str = "call",
    ) -> QueryFuture:
        """Queue an arbitrary piece of database work as a branch.

        ``fn`` receives the session's database view and may issue any reads
        or writes (``db.insert``, ``db.delete``, prepared queries, ...); the
        branch's latency and operation count are measured from the view's
        clock and client statistics.  This is how write-bearing interaction
        steps ride the same gather machinery as queries.
        """
        return QueryFuture(self, label, lambda: CallOutcome.measure(self.db, fn))

    def execute(
        self,
        query: Submittable,
        parameters: Optional[Dict[str, Any]] = None,
        *,
        cursor: Optional[object] = None,
        **kwargs: Any,
    ) -> ResultCursor:
        """Run one query inline (the blocking path); its first page is
        fetched before this returns."""
        return ResultCursor(
            self, self._resolve_optimized(query), parameters, kwargs, cursor
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _execute_page(
        self,
        optimized: OptimizedQuery,
        parameters: Optional[Dict[str, Any]],
        kwargs: Optional[Dict[str, Any]],
        cursor: Optional[object],
    ) -> QueryResult:
        """The one way in: bind and check the parameters, then run one page
        under the view's resilience policy (see the module docstring)."""
        return self.db.resilience.execute_page(
            optimized, bind_parameters(optimized, parameters, kwargs), cursor
        )

    def _finish(self, future: QueryFuture, started: float, clock: SimClock) -> None:
        """Record a resolved branch's accounting on its future."""
        future.latency_seconds = clock.now - started
        value = future._value
        if isinstance(value, ResultCursor):
            future.operations = value.to_query_result().operations
        elif isinstance(value, CallOutcome):
            future.operations = value.operations

    def _resolve_inline(self, future: QueryFuture) -> None:
        """Run one pending future now, charging the session clock directly."""
        if future.session is not self:
            raise ExecutionError("future belongs to a different session")
        clock = self.clock
        started = clock.now
        future._run()
        self._finish(future, started, clock)

    def gather(self, *futures: QueryFuture) -> List[Any]:
        """Resolve futures concurrently; charge the max branch latency.

        Every pending future starts from the same simulated instant: each
        branch executes on a scratch clock seeded at the current session
        time, and once all branches have run the session clock advances by
        the *maximum* branch latency — independent queries overlap instead
        of queueing behind one another.  Duplicate point reads issued by
        different branches are coalesced by the storage client for the
        duration of the gather (see
        :meth:`~repro.kvstore.client.StorageClient.begin_gather_window`).

        Returns the branches' results in argument order.  If any branch
        failed, the remaining branches still run (and the clock still
        advances by the longest branch) before the first failure is
        re-raised; the individual exceptions stay available via
        :meth:`QueryFuture.exception`.
        """
        for future in futures:
            if future.session is not self:
                raise ExecutionError("gather: future belongs to a different session")
        client = self.db.client
        if client.gather_window_active:
            raise ExecutionError(
                "gather may not be nested: a gather window is already open "
                "on this session's storage client"
            )
        # De-duplicate: the same future passed twice must only run once.
        pending = [
            future for future in dict.fromkeys(futures) if not future.done()
        ]
        if pending:
            clock = self.clock
            started = clock.now
            longest = 0.0
            tracer = client.tracer
            gather_span = None
            if tracer is not None:
                # One span for the whole gather; each branch becomes a
                # sibling child span.  The tracer reads time through the
                # client's clock, so branch spans time themselves on their
                # scratch clocks automatically.
                gather_span = tracer.start_span(
                    "gather", "gather", branches=len(pending)
                )
            try:
                client.begin_gather_window()
                try:
                    for future in pending:
                        branch_clock = SimClock(now=started)
                        client.clock = branch_clock
                        branch_span = None
                        if tracer is not None:
                            branch_span = tracer.start_span(
                                "branch", "branch", label=future.label
                            )
                        try:
                            future._run()
                        finally:
                            if branch_span is not None:
                                tracer.end_span(branch_span)
                            client.clock = clock
                        self._finish(future, started, branch_clock)
                        longest = max(longest, branch_clock.now - started)
                finally:
                    client.end_gather_window()
                clock.advance(longest)
            finally:
                if gather_span is not None:
                    tracer.end_span(gather_span)
        first_error = next(
            (f.exception() for f in futures if f.exception() is not None), None
        )
        if first_error is not None:
            raise first_error
        return [future.result() for future in futures]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(db={self.db!r}, now={self.now:.6f})"
