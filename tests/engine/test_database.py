"""Tests for the PiqlDatabase facade."""

import pytest

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.errors import SchemaError
from repro.workloads.scadr.schema import scadr_ddl


class TestDdlExecution:
    def test_execute_ddl_creates_tables_and_storage(self, empty_db):
        created = empty_db.execute_ddl(scadr_ddl(50))
        assert created == ["users", "subscriptions", "thoughts"]
        assert empty_db.catalog.has_table("users")
        assert "table:users" in empty_db.cluster.namespaces()

    def test_execute_ddl_accepts_statement_list(self, empty_db):
        created = empty_db.execute_ddl(
            [
                "CREATE TABLE a (x INT, PRIMARY KEY (x))",
                "CREATE INDEX idx_a ON a (x)",
                "INSERT INTO a (x) VALUES (1)",
            ]
        )
        assert created == ["a", "idx_a"]
        assert empty_db.get("a", [1]) == {"x": 1}

    @staticmethod
    def _fifty_rows(db):
        db.execute_ddl("CREATE TABLE a (x INT, y INT, PRIMARY KEY (x))")
        for x in range(50):
            db.insert("a", {"x": x, "y": x % 7})

    def test_identical_create_index_is_a_no_op(self, empty_db, monkeypatch):
        self._fifty_rows(empty_db)
        loads = []
        load = empty_db.cluster.load

        def counting_load(namespace, key, value):
            loads.append(namespace)
            return load(namespace, key, value)

        monkeypatch.setattr(empty_db.cluster, "load", counting_load)
        assert empty_db.execute_ddl("CREATE INDEX idx_y ON a (y)") == ["idx_y"]
        assert len(loads) == 50
        loads.clear()
        version = empty_db.catalog.version
        assert empty_db.execute_ddl("CREATE INDEX idx_y ON a (y)") == []
        assert loads == []
        assert empty_db.catalog.version == version
        with pytest.raises(SchemaError, match="already exists"):
            empty_db.execute_ddl("CREATE INDEX idx_y ON a (x)")

    def test_create_unique_index_is_rejected(self, empty_db):
        self._fifty_rows(empty_db)
        with pytest.raises(SchemaError, match="UNIQUE"):
            empty_db.execute_ddl("CREATE UNIQUE INDEX idx_y ON a (y)")
        assert not empty_db.catalog.has_index("idx_y")
        # Nor may it pass as identical to a plain index of the same shape.
        empty_db.execute_ddl("CREATE INDEX idx_y ON a (y)")
        with pytest.raises(SchemaError, match="UNIQUE"):
            empty_db.execute_ddl("CREATE UNIQUE INDEX idx_y ON a (y)")

    def test_execute_ddl_rejects_select(self, empty_db):
        with pytest.raises(SchemaError):
            empty_db.execute_ddl("SELECT * FROM x")

    def test_constraint_index_auto_created(self, empty_db):
        # A cardinality limit on a non-prefix column needs a supporting index
        # for the insert-time count; it must be provisioned automatically.
        empty_db.execute_ddl(
            "CREATE TABLE msgs (sender VARCHAR(10), id INT, room VARCHAR(10), "
            "PRIMARY KEY (sender, id), CARDINALITY LIMIT 3 (room))"
        )
        assert any(
            index.table == "msgs" for index in empty_db.catalog.indexes()
        )
        for i in range(3):
            empty_db.insert("msgs", {"sender": "a", "id": i, "room": "r1"})
        from repro.errors import CardinalityViolationError

        with pytest.raises(CardinalityViolationError):
            empty_db.insert("msgs", {"sender": "a", "id": 99, "room": "r1"})


class TestPrepare:
    def test_prepare_caches(self, scadr_db, thoughtstream_sql):
        assert scadr_db.prepare(thoughtstream_sql) is scadr_db.prepare(thoughtstream_sql)

    def test_prepare_creates_required_indexes(self, scadr_db):
        before = len(scadr_db.catalog.indexes())
        scadr_db.prepare(
            "SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5"
        )
        assert len(scadr_db.catalog.indexes()) == before + 1
        # The new inverted index is immediately usable.
        result = scadr_db.execute(
            "SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5",
            {"town": "berkeley"},
        )
        assert {row["username"] for row in result.rows} == {"alice", "carol"}

    def test_prepared_cache_invalidated_by_create_table(self, scadr_db,
                                                        thoughtstream_sql):
        first = scadr_db.prepare(thoughtstream_sql)
        scadr_db.execute_ddl(
            "CREATE TABLE extra (id INT, PRIMARY KEY (id))"
        )
        second = scadr_db.prepare(thoughtstream_sql)
        assert second is not first
        # The recompiled query is cached again.
        assert scadr_db.prepare(thoughtstream_sql) is second

    def test_prepared_cache_invalidated_by_create_index(self, scadr_db,
                                                        thoughtstream_sql):
        from repro.schema.ddl import IndexColumn, IndexDefinition

        first = scadr_db.prepare(thoughtstream_sql)
        scadr_db.create_index(
            IndexDefinition(
                name="idx_users_hometown",
                table="users",
                columns=(IndexColumn("hometown"),),
            )
        )
        assert scadr_db.prepare(thoughtstream_sql) is not first

    def test_prepare_with_auto_index_still_caches(self, scadr_db):
        # Preparing this query creates its own inverted index, which clears
        # the cache mid-prepare; the freshly prepared query must still be
        # cached afterwards.
        sql = "SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5"
        assert scadr_db.prepare(sql) is scadr_db.prepare(sql)

    def test_diagnose_passthrough(self, scadr_db):
        diagnosis = scadr_db.diagnose("SELECT * FROM users WHERE hometown = 'x'")
        assert not diagnosis.scale_independent

    def test_keyword_and_dict_parameters(self, scadr_db):
        prepared = scadr_db.prepare("SELECT * FROM users WHERE username = <u>")
        assert prepared.execute({"u": "alice"}).rows == prepared.execute(u="alice").rows


class TestClientViews:
    def test_new_client_shares_data_but_not_clock(self, scadr_db):
        view = scadr_db.new_client(strategy=ExecutionStrategy.LAZY)
        assert view.cluster is scadr_db.cluster
        assert view.catalog is scadr_db.catalog
        result = view.execute("SELECT * FROM users WHERE username = <u>", {"u": "bob"})
        assert result.rows[0]["username"] == "bob"
        assert view.client.clock.now > 0
        assert view.client.clock.now != scadr_db.client.clock.now
        assert view.executor.strategy is ExecutionStrategy.LAZY

    def test_new_client_accepts_external_clock(self, scadr_db):
        from repro.kvstore.simtime import SimClock

        clock = SimClock(now=5.0)
        view = scadr_db.new_client(clock=clock)
        assert view.client.clock is clock
        view.execute("SELECT * FROM users WHERE username = <u>", {"u": "bob"})
        assert clock.now > 5.0

    def test_new_client_view_is_fully_wired(self, scadr_db):
        # `new_client` builds through `__new__`; everything `__init__` sets
        # must reach the view, each per-view component as the view's own.
        view = scadr_db.new_client()
        assert set(vars(scadr_db)) <= set(vars(view))
        for own in ("client", "views", "records", "optimizer", "executor",
                    "assistant", "resilience", "_prepared_cache"):
            assert getattr(view, own) is not getattr(scadr_db, own), own
        for shared in PiqlDatabase._INHERITED_BY_VIEWS:
            assert getattr(view, shared) is getattr(scadr_db, shared), shared
        assert view.resilience.db is view
        assert view.executor.client is view.client
        assert view.records.views is view.views

    def test_simulated_takes_no_executor_selector_and_swallows_nothing(self):
        # The ledger adapter passes `fused=True` by feature detection and
        # counts it as a dropped knob; a `**kwargs` would swallow it instead.
        import inspect

        parameters = inspect.signature(PiqlDatabase.simulated).parameters
        assert "fused" not in parameters
        assert not any(
            parameter.kind is parameter.VAR_KEYWORD
            for parameter in parameters.values()
        )
        with pytest.raises(TypeError):
            PiqlDatabase.simulated(ClusterConfig(storage_nodes=2), fused=False)

    def test_views_share_one_compilation(self, scadr_db, thoughtstream_sql,
                                         monkeypatch):
        from repro.optimizer.optimizer import PiqlOptimizer

        compiles = []
        optimize = PiqlOptimizer.optimize

        def counting(self, sql):
            compiles.append(sql)
            return optimize(self, sql)

        monkeypatch.setattr(PiqlOptimizer, "optimize", counting)
        root_operations = scadr_db.client.stats.operations
        views = [scadr_db.new_client() for _ in range(5)]
        prepared = [view.prepare(thoughtstream_sql) for view in views]
        assert len(compiles) == 1
        # One plan, but a prepared query per view: it binds that view's
        # executor and session.
        assert len({id(p.optimized) for p in prepared}) == 1
        assert len({id(p) for p in prepared}) == len(views)
        for view, query in zip(views, prepared):
            before = view.client.stats.operations
            assert len(query.execute(uname="alice").rows) == 10
            assert view.client.stats.operations > before
        assert scadr_db.client.stats.operations == root_operations

    def test_ddl_through_a_sibling_view_recompiles_everywhere(
        self, scadr_db, thoughtstream_sql
    ):
        first, second = scadr_db.new_client(), scadr_db.new_client()
        stale = first.prepare(thoughtstream_sql)
        assert second.prepare(thoughtstream_sql).optimized is stale.optimized
        second.execute_ddl("CREATE TABLE extra (id INT, PRIMARY KEY (id))")
        fresh = first.prepare(thoughtstream_sql)
        assert fresh is not stale
        assert fresh.optimized is not stale.optimized
        # ... once: the sibling picks the recompiled plan up.
        assert second.prepare(thoughtstream_sql).optimized is fresh.optimized
        assert scadr_db.prepare(thoughtstream_sql).optimized is fresh.optimized

    def test_held_query_survives_ddl_through_a_sibling_view(
        self, scadr_db, thoughtstream_sql
    ):
        held = scadr_db.prepare(thoughtstream_sql)
        sibling = scadr_db.new_client()
        sibling.execute_ddl("CREATE TABLE extra (id INT, PRIMARY KEY (id))")
        sibling.execute_ddl("CREATE INDEX idx_users_created ON users (created)")
        sibling.execute_ddl(
            "INSERT INTO thoughts (owner, timestamp, text) "
            "VALUES ('bob', 2000000, 'posted after prepare')"
        )
        sibling.execute_ddl(
            "CREATE MATERIALIZED VIEW thought_counts AS "
            "SELECT owner, COUNT(*) AS n FROM thoughts GROUP BY owner"
        )
        result = held.execute(uname="alice")
        fresh = scadr_db.prepare(thoughtstream_sql)
        assert fresh is not held
        assert result.rows == fresh.execute(uname="alice").rows
        assert result.rows[0]["text"] == "posted after prepare"
        assert result.operations <= held.operation_bound

    def test_auto_created_index_serves_every_view(self, scadr_db):
        sql = "SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5"
        first, second = scadr_db.new_client(), scadr_db.new_client()
        before = len(scadr_db.catalog.indexes())
        prepared = first.prepare(sql)
        assert len(scadr_db.catalog.indexes()) == before + 1
        assert second.prepare(sql).optimized is prepared.optimized
        assert len(scadr_db.catalog.indexes()) == before + 1
        rows = second.execute(sql, {"town": "berkeley"}).rows
        assert {row["username"] for row in rows} == {"alice", "carol"}

    def test_reset_measurements(self, scadr_db):
        scadr_db.execute("SELECT * FROM users WHERE username = <u>", {"u": "bob"})
        assert scadr_db.client.clock.now > 0
        scadr_db.reset_measurements()
        assert scadr_db.client.clock.now == 0
        assert scadr_db.client.stats.operations == 0

    def test_set_offered_load(self, scadr_db):
        scadr_db.set_offered_load(
            scadr_db.cluster.config.storage_nodes * 4000 * 0.5
        )
        assert all(node.utilization == pytest.approx(0.5) for node in scadr_db.cluster.nodes)


class TestOverLongNames:
    """A namespace longer than the write-ahead log's 16-bit length field is
    a DDL error under either engine, raised before the catalog changes."""

    @pytest.mark.parametrize("engine", ["dict", "lsm"])
    def test_rejected_before_the_catalog_changes(self, engine):
        db = PiqlDatabase.simulated(
            ClusterConfig(storage_nodes=2, seed=5, storage_engine=engine)
        )
        try:
            db.execute_ddl("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
            catalog = db.catalog
            before = (
                catalog.version, catalog.tables(), catalog.indexes(),
                db.cluster.namespaces(),
            )
            name = "x" * 70_000
            # The table's own namespace fits; its constraint index's does not.
            limited = "y" * 65_525
            for ddl in (
                f"CREATE TABLE {name} (id INT, PRIMARY KEY (id))",
                f"CREATE TABLE {limited} (id INT, v INT, PRIMARY KEY (id), "
                "CARDINALITY LIMIT 3 (v))",
                f"CREATE INDEX {name} ON t (v)",
                f"CREATE MATERIALIZED VIEW {name} AS "
                "SELECT v, COUNT(*) AS n FROM t GROUP BY v",
            ):
                with pytest.raises(SchemaError, match="UTF-8 bytes"):
                    db.execute_ddl(ddl)
                assert (
                    catalog.version, catalog.tables(), catalog.indexes(),
                    db.cluster.namespaces(),
                ) == before
            # The longest name that fits ("table:" + 65 529) stores rows.
            longest = "z" * 65_529
            db.execute_ddl(f"CREATE TABLE {longest} (id INT, PRIMARY KEY (id))")
            db.insert(longest, {"id": 1})
            assert db.get(longest, [1]) == {"id": 1}
        finally:
            db.cluster.close()
