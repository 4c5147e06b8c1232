"""Execution engine tests: correctness, strategies, bounds, pagination."""

import pytest

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.errors import CursorError, ExecutionError
from repro.execution.cursor import PaginationCursor, query_fingerprint


class TestQueryCorrectness:
    """Query results must match a straightforward reference computation."""

    def test_point_lookup(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM users WHERE username = <u>", {"u": "bob"}
        )
        assert len(result.rows) == 1
        assert result.rows[0]["username"] == "bob"

    def test_point_lookup_missing(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM users WHERE username = <u>", {"u": "nobody"}
        )
        assert result.rows == []

    def test_projection_of_columns(self, scadr_db):
        result = scadr_db.execute(
            "SELECT password, hometown FROM users WHERE username = <u>", {"u": "bob"}
        )
        assert result.rows[0] == {"password": "pw1", "hometown": "seattle"}

    def test_recent_thoughts_order_and_limit(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 5",
            {"u": "carol"},
        )
        timestamps = [row["timestamp"] for row in result.rows]
        assert timestamps == sorted(timestamps, reverse=True)
        assert len(timestamps) == 5
        assert timestamps[0] == 1_000_019

    def test_ascending_scan(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp ASC LIMIT 3",
            {"u": "carol"},
        )
        assert [row["timestamp"] for row in result.rows] == [
            1_000_000, 1_000_001, 1_000_002
        ]

    def test_inequality_range(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM thoughts WHERE owner = <u> AND timestamp >= 1000015 "
            "ORDER BY timestamp ASC LIMIT 10",
            {"u": "carol"},
        )
        assert [row["timestamp"] for row in result.rows] == list(
            range(1_000_015, 1_000_020)
        )

    def test_thoughtstream_join(self, scadr_db, thoughtstream_sql):
        result = scadr_db.execute(thoughtstream_sql, {"uname": "alice"})
        # alice follows bob and carol (approved) and dave (not approved);
        # the 10 most recent thoughts therefore come from bob and carol only.
        owners = {row["owner"] for row in result.rows}
        assert owners == {"bob", "carol"}
        assert len(result.rows) == 10
        timestamps = [row["timestamp"] for row in result.rows]
        assert timestamps == sorted(timestamps, reverse=True)

    def test_fk_join(self, scadr_db):
        result = scadr_db.execute(
            "SELECT u.* FROM subscriptions s JOIN users u "
            "WHERE s.owner = <u> AND u.username = s.target",
            {"u": "alice"},
        )
        assert {row["username"] for row in result.rows} == {"bob", "carol", "dave"}

    def test_in_predicate_lookup(self, scadr_db):
        result = scadr_db.execute(
            "SELECT * FROM subscriptions WHERE target = <t> AND owner IN [1: friends(10)]",
            {"t": "alice", "friends": ["bob", "carol", "nobody"]},
        )
        assert [row["owner"] for row in result.rows] == ["bob"]

    def test_aggregate_count(self, scadr_db):
        result = scadr_db.execute(
            "SELECT COUNT(*) FROM subscriptions WHERE owner = <u>", {"u": "alice"}
        )
        assert result.rows[0]["count"] == 3

    def test_aggregate_group_by(self, scadr_db):
        result = scadr_db.execute(
            "SELECT approved, COUNT(*) AS n FROM subscriptions WHERE owner = <u> "
            "GROUP BY approved",
            {"u": "alice"},
        )
        counts = {row["approved"]: row["n"] for row in result.rows}
        assert counts == {True: 2, False: 1}

    def test_aggregate_min_max_avg(self, scadr_db):
        result = scadr_db.execute(
            "SELECT MIN(timestamp), MAX(timestamp), AVG(timestamp) FROM thoughts "
            "WHERE owner = <u> LIMIT 100",
            {"u": "bob"},
        )
        row = result.rows[0]
        assert row["min_timestamp"] == 1_000_000
        assert row["max_timestamp"] == 1_000_019
        assert row["avg_timestamp"] == pytest.approx(1_000_009.5)

    def test_missing_parameter_raises(self, scadr_db):
        with pytest.raises(ExecutionError, match="'u' was not bound"):
            scadr_db.execute("SELECT * FROM users WHERE username = <u>", {})


class TestExecutionStrategies:
    def test_all_strategies_return_identical_rows(self, scadr_db, thoughtstream_sql):
        results = {
            strategy: scadr_db.new_client(strategy=strategy)
            .prepare(thoughtstream_sql)
            .execute({"uname": "alice"})
            .rows
            for strategy in ExecutionStrategy
        }
        assert results[ExecutionStrategy.LAZY] == results[ExecutionStrategy.SIMPLE]
        assert results[ExecutionStrategy.SIMPLE] == results[ExecutionStrategy.PARALLEL]

    def test_latency_ordering_lazy_simple_parallel(self, scadr_db, thoughtstream_sql):
        def average_latency(strategy):
            prepared = scadr_db.new_client(strategy=strategy).prepare(
                thoughtstream_sql
            )
            return sum(
                prepared.execute({"uname": "alice"}).latency_seconds
                for _ in range(30)
            ) / 30

        lazy = average_latency(ExecutionStrategy.LAZY)
        simple = average_latency(ExecutionStrategy.SIMPLE)
        parallel = average_latency(ExecutionStrategy.PARALLEL)
        assert lazy > simple > parallel

    def test_operations_never_exceed_bound(self, scadr_db, thoughtstream_sql):
        for strategy in ExecutionStrategy:
            prepared = scadr_db.new_client(strategy=strategy).prepare(
                thoughtstream_sql
            )
            result = prepared.execute({"uname": "alice"})
            assert result.operations <= prepared.operation_bound


class TestPagination:
    PAGINATED = (
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp ASC PAGINATE 7"
    )

    def test_pages_cover_everything_without_duplicates(self, scadr_db):
        prepared = scadr_db.prepare(self.PAGINATED)
        seen = []
        for page in prepared.pages(u="carol"):
            seen.extend(row["timestamp"] for row in page.rows)
            assert len(page.rows) <= 7
        assert seen == list(range(1_000_000, 1_000_020))

    def test_descending_pagination(self, scadr_db):
        prepared = scadr_db.prepare(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 6"
        )
        seen = []
        for page in prepared.pages(u="carol"):
            seen.extend(row["timestamp"] for row in page.rows)
        assert seen == list(range(1_000_019, 999_999, -1))

    def test_cursor_is_serializable_and_resumable(self, scadr_db):
        prepared = scadr_db.prepare(self.PAGINATED)
        first = prepared.execute(u="carol")
        assert first.has_more
        assert isinstance(first.cursor, str)
        # The cursor round-trips through its string form (it could be shipped
        # to the browser and back, Section 4.1).
        token = PaginationCursor.deserialize(first.cursor).serialize()
        second = prepared.execute({"u": "carol"}, cursor=token)
        assert [r["timestamp"] for r in second.rows] == list(
            range(1_000_007, 1_000_014)
        )

    def test_cursor_for_wrong_query_rejected(self, scadr_db):
        prepared = scadr_db.prepare(self.PAGINATED)
        other = scadr_db.prepare(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 6"
        )
        cursor = prepared.execute(u="carol").cursor
        with pytest.raises(CursorError):
            other.execute({"u": "carol"}, cursor=cursor)

    def test_cursor_on_non_paginated_query_rejected(self, scadr_db):
        prepared = scadr_db.prepare(
            "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp ASC LIMIT 5"
        )
        cursor = PaginationCursor(query_fingerprint("x", "y", {})).serialize()
        with pytest.raises(CursorError):
            prepared.execute({"u": "carol"}, cursor=cursor)

    def test_only_paginated_queries_render_a_fingerprint(self, scadr_db,
                                                         monkeypatch):
        from repro.execution import executor

        rendered = []
        render = executor.plan_to_string

        def counting(plan):
            rendered.append(plan)
            return render(plan)

        monkeypatch.setattr(executor, "plan_to_string", counting)
        result = scadr_db.execute(
            "SELECT * FROM users WHERE username = <u>", {"u": "bob"}
        )
        assert result.cursor is None and not rendered
        page = scadr_db.prepare(self.PAGINATED).execute(u="carol")
        assert page.cursor is not None and len(rendered) == 1

    def test_corrupt_cursor_rejected(self, scadr_db):
        prepared = scadr_db.prepare(self.PAGINATED)
        with pytest.raises(CursorError):
            prepared.execute({"u": "carol"}, cursor="not-a-cursor")

    def test_each_page_is_bounded(self, scadr_db):
        prepared = scadr_db.prepare(self.PAGINATED)
        for page in prepared.pages(u="carol"):
            assert page.operations <= prepared.operation_bound


class TestCursorBindings:
    """A cursor resumes only the parameter values that issued it.

    Before the fingerprint covered the bindings, ``g=1`` resumed with
    ``g=2``'s cursor returned an empty last page, and ``g=2`` resumed with
    ``g=1``'s restarted at its first row — a silently wrong page either
    way."""

    SQL = "SELECT * FROM t WHERE g = <g> ORDER BY id PAGINATE 3"

    @pytest.fixture
    def db(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=3))
        db.execute_ddl("CREATE TABLE t (g INT, id INT, PRIMARY KEY (g, id))")
        for g, ids in ((1, range(0, 10)), (2, range(10, 14))):
            for i in ids:
                db.insert("t", {"g": g, "id": i})
        return db

    def run_page(self, db, way, g, cursor):
        query = db.prepare(self.SQL)
        if way == "pages":
            return next(db.session().execute(query, {"g": g}, cursor=cursor).pages())
        if way == "deserialized":
            cursor = PaginationCursor.deserialize(cursor)
        return query.execute(g=g, cursor=cursor)

    @pytest.mark.parametrize("way", ["blocking", "pages", "deserialized"])
    def test_other_values_are_refused_before_any_request(self, db, way):
        tokens = {g: db.prepare(self.SQL).execute(g=g).cursor for g in (1, 2)}
        operations = db.client.stats.operations
        for issued, replayed in ((1, 2), (2, 1)):
            with pytest.raises(CursorError):
                self.run_page(db, way, replayed, tokens[issued])
        assert db.client.stats.operations == operations

    @pytest.mark.parametrize("way", ["blocking", "pages", "deserialized"])
    def test_the_issuing_values_resume(self, db, way):
        token = db.prepare(self.SQL).execute(g=1).cursor
        page = self.run_page(db, way, 1, token)
        assert [row["id"] for row in page.rows] == [3, 4, 5]

    # (sql, first page's bindings, next page's bindings, next page's ids):
    # the cursor covers only the values the predicates read.
    SAME_RESULT_SET = {
        "unused_name_added": (
            SQL, {"g": 1}, {"g": 1, "unused": 7}, [3, 4, 5]),
        "unused_name_dropped": (
            SQL, {"g": 1, "unused": 7}, {"g": 1}, [3, 4, 5]),
        "count_left_unbound_then_its_maximum": (
            "SELECT * FROM t WHERE g = <g> ORDER BY id PAGINATE [1: n(5)]",
            {"g": 1}, {"g": 1, "n": 5}, [5, 6, 7, 8, 9]),
        "page_size_changed": (
            "SELECT * FROM t WHERE g = <g> ORDER BY id PAGINATE [1: n(5)]",
            {"g": 1, "n": 2}, {"g": 1, "n": 4}, [2, 3, 4, 5]),
        "list_sent_as_a_tuple": (
            "SELECT * FROM t WHERE g IN [1: gs(2)] ORDER BY id PAGINATE 3",
            {"gs": [1, 2]}, {"gs": (1, 2)}, [3, 4, 5]),
    }

    @pytest.mark.parametrize("case", sorted(SAME_RESULT_SET))
    def test_bindings_that_leave_the_result_set_alone_resume(self, db, case):
        sql, first, then, ids = self.SAME_RESULT_SET[case]
        query = db.prepare(sql)
        token = query.execute(first).cursor
        assert [row["id"] for row in query.execute(then, cursor=token).rows] == ids


class TestResultMetadata:
    def test_operations_and_rpcs_are_this_querys_share_of_the_client_counters(
        self, scadr_db, thoughtstream_sql
    ):
        stats = scadr_db.client.stats
        for sql, parameters in [
            (thoughtstream_sql, {"uname": "alice"}),
            ("SELECT * FROM users WHERE username = <u>", {"u": "bob"}),
        ]:
            operations, rpcs = stats.operations, stats.rpcs
            result = scadr_db.execute(sql, parameters)
            assert result.operations == stats.operations - operations > 0
            assert result.rpcs == stats.rpcs - rpcs > 0

    def test_latency_and_operations_reported(self, scadr_db, thoughtstream_sql):
        result = scadr_db.execute(thoughtstream_sql, {"uname": "alice"})
        assert result.latency_seconds > 0
        assert result.latency_ms == pytest.approx(result.latency_seconds * 1000)
        assert result.operations >= 2
        assert result.rpcs >= 2
        assert len(result) == len(result.rows)
        assert list(iter(result)) == result.rows


class TestProjectionCollisionRule:
    """``_project_row`` flattens ``alias -> column -> value`` rows."""

    @staticmethod
    def project(items, row):
        from repro.execution.operators import _project_row

        return _project_row(tuple(items), row)

    def test_same_name_equal_value_is_one_column(self):
        from repro.plans import logical as L

        row = {"s": {"owner": "bob", "target": "carol"},
               "t": {"owner": "bob", "text": "hi"}}
        assert self.project([L.StarItem(None)], row) == {
            "owner": "bob", "target": "carol", "text": "hi",
        }

    def test_same_name_different_value_is_qualified(self):
        from repro.plans import logical as L

        row = {"s": {"owner": "alice", "target": "bob"},
               "t": {"owner": "bob", "text": "hi"}}
        assert self.project([L.StarItem(None)], row) == {
            "owner": "alice", "target": "bob", "t.owner": "bob", "text": "hi",
        }
        columns = [
            L.BoundColumn("t", "thoughts", "owner"),
            L.BoundColumn("s", "subscriptions", "owner"),
        ]
        assert self.project(columns, row) == {"owner": "bob", "s.owner": "alice"}

    def test_star_skips_aggregates_and_specs_read_them(self):
        from repro.plans import logical as L

        row = {"t": {"owner": "bob"}, "__agg__": {"n": 3}}
        assert self.project([L.StarItem(None)], row) == {"owner": "bob"}
        assert self.project([L.StarItem("t")], row) == {"owner": "bob"}
        count = L.AggregateSpec("COUNT", None, "n")
        missing = L.AggregateSpec("MAX", None, "m")
        assert self.project([L.StarItem(None), count, missing], row) == {
            "owner": "bob", "n": 3, "m": None,
        }
        assert self.project([count], {"t": {"owner": "bob"}}) == {"n": None}
