"""``PiqlDatabase`` — the top-level facade of the reproduction.

A ``PiqlDatabase`` ties together every component of Figure 2: the simulated
key/value store cluster, the client-side record manager and indexes, the
scale-independent optimizer, the execution engine, and the Performance
Insight Assistant.  A typical session::

    from repro import PiqlDatabase, ClusterConfig

    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=10))
    db.execute_ddl(SCADR_DDL)
    db.insert("users", {"username": "bob", ...})

    q = db.prepare(
        "SELECT thoughts.* FROM subscriptions s JOIN thoughts t "
        "WHERE t.owner = s.target AND s.owner = <uname> "
        "AND s.approved = true ORDER BY t.timestamp DESC LIMIT 10"
    )
    print(q.operation_bound)          # static bound on k/v operations
    page = q.execute(uname="bob")     # rows + simulated latency
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from ..execution.context import ExecutionStrategy, QueryResult
from ..execution.executor import QueryExecutor
from ..kvstore.client import StorageClient
from ..kvstore.cluster import ClusterConfig, KeyValueCluster
from ..kvstore.engine.base import MAX_NAMESPACE_BYTES
from ..kvstore.simtime import SimClock
from ..obs.audit import BoundAuditor
from ..obs.trace import Tracer
from ..optimizer.assistant import PerformanceInsightAssistant, QueryDiagnosis
from ..optimizer.optimizer import OptimizedQuery, PiqlOptimizer
from ..schema.catalog import Catalog
from ..schema.ddl import IndexColumn, IndexDefinition, Table
from ..sql import ast
from ..sql.parser import parse
from ..resilience.policy import ResilienceConfig, ResiliencePolicy
from ..storage.record_manager import RecordManager
from ..storage.rows import index_entries, record_key, serialize_row
from ..views.definition import MaterializedView, analyze_view
from ..views.maintenance import ViewMaintenanceEngine
from .query import PreparedQuery
from .session import Session


def _check_namespaces(*holders: Union[None, Table, IndexDefinition]) -> None:
    """Reject a name no storage engine can hold, before the catalog sees it."""
    for holder in holders:
        if holder is None:
            continue
        namespace = holder.namespace
        size = len(namespace.encode("utf-8"))
        if size > MAX_NAMESPACE_BYTES:
            raise SchemaError(
                f"namespace {namespace[:40]!r}... is {size} UTF-8 bytes; "
                f"storage holds names of at most {MAX_NAMESPACE_BYTES}"
            )


class PiqlDatabase:
    """A PIQL database engine instance backed by a simulated key/value store."""

    #: What a ``new_client`` view takes from the database it came from; the
    #: rest it builds for itself in :meth:`_wire_view`.  The auditor is
    #: shared so bound violations are counted (and policed) globally across
    #: app servers.
    _INHERITED_BY_VIEWS = ("cluster", "catalog", "auditor", "_compiled_cache")

    def __init__(
        self,
        cluster: Optional[KeyValueCluster] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        if resilience is not None and not isinstance(resilience, ResilienceConfig):
            # A policy always exists; `False` used to build a view without
            # one, and silently building the default instead would hide that.
            raise TypeError(
                f"resilience must be a ResilienceConfig or None, got {resilience!r}"
            )
        self.cluster = cluster or KeyValueCluster(ClusterConfig())
        self.catalog = Catalog()
        self.auditor = BoundAuditor()
        #: Compiled plans by SQL text, stamped with the catalog version they
        #: were compiled under; one dict per logical database, shared by
        #: every ``new_client`` view (a plan binds no view state — the
        #: :class:`PreparedQuery` wrapping it does, so that stays per view).
        self._compiled_cache: Dict[str, Tuple[int, OptimizedQuery]] = {}
        self._wire_view(
            StorageClient(cluster=self.cluster),
            ExecutionStrategy.PARALLEL,
            resilience or ResilienceConfig(),
        )

    def _wire_view(
        self,
        client: StorageClient,
        strategy: ExecutionStrategy,
        resilience: ResilienceConfig,
    ) -> None:
        """Build everything one application-server view owns for itself.

        ``__init__`` and ``new_client`` both end here, once the state views
        share is in place, so a component added here reaches every view.
        """
        self.client = client
        self.views = ViewMaintenanceEngine(self.catalog, client)
        self.records = RecordManager(self.catalog, client, views=self.views)
        self.optimizer = PiqlOptimizer(self.catalog)
        self.executor = QueryExecutor(client, self.catalog, self.auditor, strategy)
        self.assistant = PerformanceInsightAssistant(self.catalog)
        self._prepared_cache: Dict[str, Tuple[int, PreparedQuery]] = {}
        self._default_session: Optional[Session] = None
        #: The view's resilience policy: its own retry budget, breaker board
        #: and jitter stream.  The default configuration only paces retries
        #: on the failure path (healthy-path behaviour is byte-identical to
        #: calling the executor directly); pass a
        #: :class:`~repro.resilience.policy.ResilienceConfig` to opt into
        #: derived timeouts and circuit breakers.
        self.resilience = ResiliencePolicy(self, resilience)
        if self.resilience.board is not None:
            client.breakers = self.resilience.board

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def simulated(
        cls,
        config: Optional[ClusterConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
    ) -> "PiqlDatabase":
        """Create a database on a fresh simulated cluster.

        ``resilience`` configures the client resilience policy (see
        :class:`PiqlDatabase`).  Its queries run PARALLEL; a view with
        another strategy comes from :meth:`new_client`.
        """
        return cls(
            cluster=KeyValueCluster(config or ClusterConfig()),
            resilience=resilience,
        )

    def new_client(
        self,
        strategy: Optional[ExecutionStrategy] = None,
        clock: Optional[SimClock] = None,
    ) -> "PiqlDatabase":
        """A second application-server view onto the *same* cluster and schema.

        The new instance shares the cluster and catalog (so data and indexes
        are visible) but has its own simulated clock and statistics — this
        is how the benchmark harness models many stateless application
        servers issuing queries concurrently (Figure 2).  The serving tier's
        discrete-event kernel passes its own ``clock`` so it can interleave
        this client's timeline with every other client's.

        ``strategy`` is the one place an execution strategy is chosen: every
        query of the view runs under it (default: this view's).  Comparing
        strategies (Figure 12) means one view per strategy.  A traced
        view's clones are traced too and keep as many roots as it does.
        """
        clone = PiqlDatabase.__new__(PiqlDatabase)
        for name in self._INHERITED_BY_VIEWS:
            setattr(clone, name, getattr(self, name))
        clone._wire_view(
            StorageClient(cluster=self.cluster, clock=clock or SimClock()),
            strategy or self.executor.strategy,
            self.resilience.config,
        )
        tracer = self.client.tracer
        if tracer is not None:
            clone.client.enable_tracing(keep=tracer.roots.maxlen)
        return clone

    def session(self) -> Session:
        """Open an asynchronous session on this view's clock.

        The session's :meth:`~repro.engine.session.Session.submit` /
        :meth:`~repro.engine.session.Session.gather` let independent queries
        of one interaction overlap in simulated time; see
        :mod:`repro.engine.session`.  Sessions are stateless handles — all
        sessions of one view share its clock and statistics.
        """
        return Session(self)

    @property
    def default_session(self) -> Session:
        """The session backing the synchronous ``execute`` shims."""
        if self._default_session is None:
            self._default_session = Session(self)
        return self._default_session

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def execute_ddl(self, ddl: Union[str, Sequence[str]]) -> List[str]:
        """Execute one or more DDL statements (separated by ``;`` if a string).

        Returns the names of the tables and indexes created.  Declaring an
        index identical to an existing one is a no-op and is left out of
        the list; ``CREATE UNIQUE INDEX`` raises
        :class:`~repro.errors.SchemaError`, since nothing would enforce it.
        """
        statements: List[str]
        if isinstance(ddl, str):
            statements = [s.strip() for s in ddl.split(";") if s.strip()]
        else:
            statements = [s for s in ddl if s.strip()]
        created: List[str] = []
        for text in statements:
            statement = parse(text)
            if isinstance(statement, ast.CreateTableStatement):
                self.create_table(statement.table)
                created.append(statement.table.name)
            elif isinstance(statement, ast.CreateIndexStatement):
                if statement.unique:
                    raise SchemaError(
                        f"index {statement.name!r}: UNIQUE indexes are not "
                        "supported (no insert would check them)"
                    )
                index = IndexDefinition(
                    name=statement.name,
                    table=statement.table,
                    columns=tuple(
                        IndexColumn(name, tokenized) for name, tokenized in statement.columns
                    ),
                )
                fresh = not self.catalog.has_index(index.name)
                self.create_index(index)
                if fresh:
                    created.append(statement.name)
            elif isinstance(statement, ast.CreateMaterializedViewStatement):
                self.create_materialized_view(statement)
                created.append(statement.name)
            elif isinstance(statement, ast.InsertStatement):
                self.insert(statement.table, dict(zip(statement.columns, statement.values)))
            else:
                raise SchemaError(
                    f"execute_ddl only handles CREATE TABLE / CREATE INDEX / "
                    f"CREATE MATERIALIZED VIEW / INSERT, "
                    f"got {type(statement).__name__}"
                )
        return created

    def create_table(self, table: Table) -> Table:
        """Register a table, provision its storage, and its constraint indexes."""
        _check_namespaces(table, *(
            self.records.constraint_index(table, limit)
            for limit in table.cardinality_limits
        ))
        self.catalog.add_table(table)
        self.records.create_table_storage(table)
        # Cardinality constraints whose columns are not a primary-key prefix
        # need an index so the insert protocol can count matching rows.
        for limit in table.cardinality_limits:
            index = self.records.constraint_index(table, limit)
            if index is not None and not self.catalog.has_index(index.name):
                self.create_index(index)
        return table

    def create_index(
        self, index: IndexDefinition, auto_created: bool = False
    ) -> IndexDefinition:
        """Register a secondary index and backfill it from existing records.

        ``auto_created=True`` marks the index as invented by the optimizer's
        index selection (Section 5.3) rather than declared by the schema;
        the catalog remembers the distinction so re-compiling a query keeps
        reporting the index under ``required_indexes`` even once it exists
        (Table 1's "additional indexes" column).  Re-registering an
        identical index is a no-op: its storage and entries already exist.
        """
        _check_namespaces(index)
        fresh = not self.catalog.has_index(index.name)
        registered = self.catalog.add_index(index, auto_created=auto_created)
        if fresh:
            self.records.create_index_storage(registered)
            self._backfill_index(registered)
        return registered

    def create_materialized_view(
        self, statement: Union[str, ast.CreateMaterializedViewStatement]
    ) -> MaterializedView:
        """Register a materialized view and backfill it from existing data.

        Provisions the view's backing table (one row per group) and, for
        top-k views, its bounded ordered view index; existing driving-table
        rows are folded in through the latency-free load path.  From then on
        every insert/update/delete of the driving table maintains the view
        incrementally at a statically bounded cost, and the optimizer's
        precomputation phase may rewrite matching aggregate queries into
        bounded view scans.
        """
        if isinstance(statement, str):
            parsed = parse(statement)
            if not isinstance(parsed, ast.CreateMaterializedViewStatement):
                raise SchemaError(
                    "create_materialized_view expects CREATE MATERIALIZED VIEW"
                )
            statement = parsed
        view = analyze_view(statement, self.catalog)
        _check_namespaces(view.backing_table, view.order_index)
        self.catalog.add_table(view.backing_table)
        self.records.create_table_storage(view.backing_table)
        if view.order_index is not None:
            self.catalog.add_index(view.order_index)
            self.records.create_index_storage(view.order_index)
        self.catalog.add_view(view)
        self.views.backfill(view)
        return view

    def _backfill_index(self, index: IndexDefinition) -> None:
        table = self.catalog.table(index.table)
        namespace = index.namespace
        for _, payload in self.cluster.iter_namespace(table.namespace):
            row = self._deserialize(payload)
            for entry_key, entry_value in index_entries(index, table, row):
                self.cluster.load(namespace, entry_key, entry_value)

    @staticmethod
    def _deserialize(payload: bytes) -> Dict[str, Any]:
        from ..storage.rows import deserialize_row

        return deserialize_row(payload)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, table: str, row: Dict[str, Any], upsert: bool = False) -> Dict[str, Any]:
        """Insert one row (index maintenance + constraint checks included)."""
        return self.records.insert(table, row, upsert=upsert)

    def insert_many(
        self, table: str, rows: Iterable[Dict[str, Any]], upsert: bool = False
    ) -> List[Dict[str, Any]]:
        """Insert rows of one table, one batched write per namespace."""
        return self.records.insert_many(table, rows, upsert=upsert)

    def update(self, table: str, row: Dict[str, Any]) -> Dict[str, Any]:
        """Replace the row with the same primary key, maintaining indexes
        and views and enforcing every ``CARDINALITY LIMIT`` the new row could
        grow: an update over a limit is refused and the old row restored."""
        return self.records.update(table, row)

    def delete(self, table: str, pk_values: Sequence[Any]) -> bool:
        """Delete one row by primary key."""
        return self.records.delete(table, pk_values)

    def delete_many(
        self, table: str, pk_values: Iterable[Sequence[Any]]
    ) -> List[bool]:
        """Delete rows of one table by primary key, one batched write per
        namespace; returns per key whether it existed."""
        return self.records.delete_many(table, pk_values)

    def get(self, table: str, pk_values: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Point lookup by primary key."""
        return self.records.get(table, pk_values)

    def bulk_load(self, table: str, rows: Iterable[Dict[str, Any]]) -> int:
        """Bulk load rows without charging simulated latency."""
        return self.records.bulk_load(table, rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedQuery:
        """Compile a PIQL SELECT into a scale-independent prepared query.

        Any secondary indexes the plan requires (Section 5.3) are created
        automatically and backfilled before the query is returned.
        """
        # Cache entries are stamped with the catalog version they were
        # compiled under.  The catalog is shared by every `new_client` view,
        # so DDL issued through *any* view invalidates stale plans here too.
        cached = self._prepared_cache.get(sql)
        if cached is not None and cached[0] == self.catalog.version:
            return cached[1]
        compiled = self._compiled_cache.get(sql)
        if compiled is not None and compiled[0] == self.catalog.version:
            optimized = compiled[1]
        else:
            optimized = self.optimizer.optimize(sql)
            for index in optimized.required_indexes:
                if not self.catalog.has_index(index.name):
                    self.create_index(index, auto_created=True)
            self._compiled_cache[sql] = (self.catalog.version, optimized)
        prepared = PreparedQuery(optimized, self.default_session)
        self._prepared_cache[sql] = (self.catalog.version, prepared)
        return prepared

    def execute(self, sql: str, parameters: Optional[Dict[str, Any]] = None, **kwargs: Any) -> QueryResult:
        """Compile (with caching) and execute a query in one call.

        The parameters are checked against what the query text declares
        before anything runs (:func:`~repro.engine.query.bind_parameters`).
        A page that fails because a replica quorum could not be met, or an
        RPC timed out, is retried by the view's resilience policy up to
        ``ResilienceConfig.max_attempts`` attempts in all, paced with
        exponential backoff and full jitter under a token-bucket budget; a
        persistent outage surfaces as the typed
        :class:`~repro.errors.UnavailableError` (or its
        :class:`~repro.errors.QuorumNotMetError` subclass) so callers can
        distinguish "the store is degraded" from a query bug.  Both happen
        in the one function every query page goes through,
        :meth:`~repro.engine.session.Session._execute_page`; retrying again
        here would square the attempt count.
        """
        return self.prepare(sql).execute(parameters, **kwargs)

    def diagnose(self, sql: str) -> QueryDiagnosis:
        """Run the Performance Insight Assistant on a query."""
        return self.assistant.diagnose(sql)

    # ------------------------------------------------------------------
    # Operational helpers
    # ------------------------------------------------------------------
    def set_offered_load(self, total_ops_per_second: float) -> None:
        """Model an aggregate offered load across the cluster (queueing delay)."""
        self.cluster.set_offered_load(total_ops_per_second)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Optional[Tracer]:
        """This view's tracer, or ``None`` while tracing is disabled."""
        return self.client.tracer

    def enable_tracing(self, keep: int = 64) -> Tracer:
        """Turn on span collection for this view's executions."""
        return self.client.enable_tracing(keep=keep)

    def explain_analyze(
        self,
        sql: str,
        parameters: Optional[Dict[str, Any]] = None,
        latency_model: Optional[Any] = None,
    ) -> str:
        """Execute ``sql`` once and render its plan with live measurements."""
        from ..obs.explain import explain_analyze

        return explain_analyze(self, sql, parameters, latency_model)

    def reset_measurements(self) -> None:
        """Reset per-client and per-node statistics (not the data)."""
        self.client.stats = type(self.client.stats)()
        self.client.clock.reset()
        self.cluster.reset_stats()
        self.auditor.reset()
        if self.client.tracer is not None:
            self.client.tracer.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiqlDatabase(nodes={self.cluster.config.storage_nodes}, "
            f"tables={[t.name for t in self.catalog.tables()]})"
        )
