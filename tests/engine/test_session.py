"""Tests for the asynchronous session API: futures, gather, cursors."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.engine.session import QueryFuture, ResultCursor, Session
from repro.errors import ExecutionError

USERS_BY_NAME = "SELECT * FROM users WHERE username = <u>"
RECENT_THOUGHTS = (
    "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT 10"
)
PAGINATED_THOUGHTS = (
    "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC PAGINATE 6"
)


def fresh_scadr_db(seed: int = 7) -> PiqlDatabase:
    """A small hand-populated database (fresh ⇒ deterministic noise streams)."""
    from repro.workloads.scadr.schema import scadr_ddl

    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=seed))
    db.execute_ddl(scadr_ddl(max_subscriptions=100))
    for index, name in enumerate(["alice", "bob", "carol", "dave"]):
        db.insert(
            "users",
            {"username": name, "password": f"pw{index}", "hometown": "berkeley",
             "created": 1_000 + index},
        )
        for sequence in range(20):
            db.insert(
                "thoughts",
                {"owner": name, "timestamp": 1_000_000 + sequence,
                 "text": f"thought {sequence} from {name}"},
            )
    db.reset_measurements()
    return db


class TestFutures:
    def test_submit_is_non_blocking(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.submit(USERS_BY_NAME, u="alice")
        assert isinstance(future, QueryFuture)
        assert not future.done()
        assert session.now == 0.0, "submission must not charge the clock"

    def test_result_resolves_inline_and_charges_sequentially(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.submit(USERS_BY_NAME, u="alice")
        cursor = future.result()
        assert future.done()
        assert cursor.rows[0]["username"] == "alice"
        assert session.now == pytest.approx(cursor.latency_seconds)
        assert future.latency_seconds == pytest.approx(cursor.latency_seconds)

    def test_result_is_idempotent(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.submit(USERS_BY_NAME, u="bob")
        first = future.result()
        at = session.now
        assert future.result() is first
        assert session.now == at, "re-reading a result must charge nothing"

    def test_foreign_future_rejected(self):
        db = fresh_scadr_db()
        other = fresh_scadr_db()
        future = other.session().submit(USERS_BY_NAME, u="alice")
        with pytest.raises(ExecutionError):
            db.session().gather(future)

    def test_failed_future_raises_from_gather_and_result(self):
        db = fresh_scadr_db()
        session = db.session()
        good = session.submit(USERS_BY_NAME, u="alice")
        bad = session.submit(USERS_BY_NAME)  # parameter never bound
        with pytest.raises(ExecutionError, match="'u' was not bound"):
            session.gather(good, bad)
        assert good.done() and bad.done()
        assert isinstance(bad.exception(), ExecutionError)
        with pytest.raises(ExecutionError, match="'u' was not bound"):
            bad.result()
        # The successful sibling's result is still available.
        assert good.result().rows


class TestGather:
    def test_gather_charges_max_of_branches(self):
        serial_db = fresh_scadr_db()
        r1 = serial_db.execute(USERS_BY_NAME, u="alice")
        r2 = serial_db.execute(RECENT_THOUGHTS, u="bob")
        serial_total = serial_db.client.clock.now
        assert serial_total == pytest.approx(
            r1.latency_seconds + r2.latency_seconds
        )

        db = fresh_scadr_db()
        session = db.session()
        f1 = session.submit(USERS_BY_NAME, u="alice")
        f2 = session.submit(RECENT_THOUGHTS, u="bob")
        c1, c2 = session.gather(f1, f2)
        assert session.now == pytest.approx(
            max(f1.latency_seconds, f2.latency_seconds)
        )
        assert session.now < serial_total
        # Identical rows and identical per-query work in both modes.
        assert c1.rows == r1.rows and c2.rows == r2.rows
        assert c1.operations == r1.operations
        assert c2.operations == r2.operations

    def test_gather_preserves_per_query_bounds(self):
        db = fresh_scadr_db()
        session = db.session()
        prepared = db.prepare(RECENT_THOUGHTS)
        futures = [session.submit(prepared, u=name) for name in
                   ("alice", "bob", "carol")]
        cursors = session.gather(*futures)
        for cursor in cursors:
            assert cursor.operations <= prepared.operation_bound

    def test_gather_returns_results_in_argument_order(self):
        db = fresh_scadr_db()
        session = db.session()
        f1 = session.submit(USERS_BY_NAME, u="carol")
        f2 = session.submit(USERS_BY_NAME, u="dave")
        c1, c2 = session.gather(f1, f2)
        assert c1.rows[0]["username"] == "carol"
        assert c2.rows[0]["username"] == "dave"

    def test_gather_tolerates_duplicate_futures(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.submit(USERS_BY_NAME, u="alice")
        c1, c2 = session.gather(future, future)
        assert c1 is c2
        assert session.now == pytest.approx(future.latency_seconds)

    def test_gather_of_already_done_futures_charges_nothing(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.submit(USERS_BY_NAME, u="alice")
        future.result()
        at = session.now
        session.gather(future)
        assert session.now == at

    def test_nested_gather_rejected(self):
        db = fresh_scadr_db()
        session = db.session()

        def nested(view):
            view.default_session.gather(
                view.default_session.submit(USERS_BY_NAME, u="bob")
            )

        future = session.call(nested)
        with pytest.raises(ExecutionError):
            session.gather(future, session.submit(USERS_BY_NAME, u="alice"))

    def test_deterministic_timeline_given_seed(self):
        """Same seed + same DAG ⇒ identical simulated timeline."""
        timelines = []
        for _ in range(2):
            db = fresh_scadr_db(seed=21)
            session = db.session()
            marks = []
            for name in ("alice", "bob"):
                futures = [
                    session.submit(USERS_BY_NAME, u=name),
                    session.submit(RECENT_THOUGHTS, u=name),
                ]
                session.gather(*futures)
                marks.append(
                    (session.now, tuple(f.latency_seconds for f in futures))
                )
            timelines.append(marks)
        assert timelines[0] == timelines[1]


class TestCoalescing:
    def test_duplicate_reads_coalesce_within_gather(self):
        db = fresh_scadr_db()
        session = db.session()
        f1 = session.submit(USERS_BY_NAME, u="alice")
        f2 = session.submit(USERS_BY_NAME, u="alice")
        c1, c2 = session.gather(f1, f2)
        assert c1.rows == c2.rows
        stats = db.client.stats
        assert stats.coalesced_reads >= 1
        # Coalescing never hides work: both queries count their operations.
        assert c1.operations == c2.operations
        assert stats.operations == c1.operations + c2.operations

    def test_no_coalescing_outside_gather(self):
        db = fresh_scadr_db()
        db.execute(USERS_BY_NAME, u="alice")
        db.execute(USERS_BY_NAME, u="alice")
        assert db.client.stats.coalesced_reads == 0

    def test_write_inside_gather_invalidates_cached_read(self):
        db = fresh_scadr_db()
        session = db.session()

        read_first = session.submit(USERS_BY_NAME, u="alice")

        def update(view):
            row = dict(view.get("users", ["alice"]))
            row["hometown"] = "oakland"
            view.update("users", row)

        write = session.call(update, label="relocate")
        read_after = session.submit(USERS_BY_NAME, u="alice")
        session.gather(read_first, write, read_after)
        # The branch submitted after the write observes the new value rather
        # than the coalescing buffer's stale entry.
        assert read_after.result().rows[0]["hometown"] == "oakland"


class TestResultCursor:
    def test_single_page_cursor_matches_query_result(self):
        db = fresh_scadr_db()
        cursor = db.session().execute(USERS_BY_NAME, u="alice")
        assert isinstance(cursor, ResultCursor)
        assert not cursor.has_more
        result = cursor.to_query_result()
        assert cursor.fetch_all() == result.rows
        assert cursor.operations == result.operations

    def test_pages_stream_lazily(self):
        db = fresh_scadr_db()
        cursor = db.session().execute(PAGINATED_THOUGHTS, u="alice")
        assert cursor.pages_fetched == 1
        assert cursor.has_more
        operations_before = cursor.operations
        rows = list(cursor)
        assert cursor.pages_fetched > 1
        assert cursor.operations > operations_before
        assert len(rows) == 20

    def test_lazy_fetches_charge_the_session_clock(self):
        db = fresh_scadr_db()
        session = db.session()
        cursor = session.execute(PAGINATED_THOUGHTS, u="bob")
        after_first_page = session.now
        cursor.fetch_all()
        assert session.now > after_first_page
        assert session.now == pytest.approx(cursor.latency_seconds)

    def test_fetch_all_matches_legacy_pages(self):
        db = fresh_scadr_db()
        legacy = [
            row
            for page in db.prepare(PAGINATED_THOUGHTS).pages(u="carol")
            for row in page.rows
        ]
        db2 = fresh_scadr_db()
        assert db2.session().execute(PAGINATED_THOUGHTS, u="carol").fetch_all() \
            == legacy

    def test_iterating_twice_does_not_refetch(self):
        db = fresh_scadr_db()
        cursor = db.session().execute(PAGINATED_THOUGHTS, u="dave")
        first = cursor.fetch_all()
        operations = cursor.operations
        assert cursor.fetch_all() == first
        assert cursor.operations == operations


class TestLegacyShims:
    def test_prepared_execute_goes_through_default_session(self, scadr_db):
        prepared = scadr_db.prepare(USERS_BY_NAME)
        assert isinstance(prepared._session, Session)
        result = prepared.execute(u="alice")
        # The shim returns the eager QueryResult type, not a cursor.
        from repro import QueryResult

        assert isinstance(result, QueryResult)
        assert result.rows[0]["username"] == "alice"

    def test_db_execute_unchanged(self, scadr_db):
        result = scadr_db.execute(USERS_BY_NAME, {"u": "bob"})
        assert result.rows[0]["username"] == "bob"
        assert result.latency_seconds > 0

    def test_call_future_measures_write_cost(self):
        db = fresh_scadr_db()
        session = db.session()
        future = session.call(
            lambda view: view.insert(
                "thoughts",
                {"owner": "alice", "timestamp": 5_000_000, "text": "hi"},
                upsert=True,
            ),
            label="post",
        )
        outcome = future.result()
        assert outcome.operations >= 1
        assert outcome.latency_seconds > 0
        assert session.now == pytest.approx(outcome.latency_seconds)


class TestAutoIndexReporting:
    def test_required_indexes_stable_across_recompiles(self, scadr_db):
        """Re-preparing after the auto index exists must still report it.

        This is the seed-era Table 1 bug: ``required_indexes`` only listed
        indexes that did not exist yet, so whichever query compiled first
        "stole" the report from every later compile.
        """
        sql = "SELECT * FROM users WHERE hometown LIKE [1: town] LIMIT 5"
        first = scadr_db.prepare(sql)
        assert first.optimized.required_indexes
        described = [ix.describe() for ix in first.optimized.required_indexes]
        # Invalidate the plan cache with unrelated DDL and recompile.
        scadr_db.execute_ddl("CREATE TABLE unrelated (id INT, PRIMARY KEY (id))")
        second = scadr_db.prepare(sql)
        assert second is not first
        assert [ix.describe() for ix in second.optimized.required_indexes] \
            == described

    def test_schema_declared_indexes_not_reported(self, scadr_db,
                                                  thoughtstream_sql):
        # The thoughtstream plan runs off primary indexes plus the schema's
        # own constraint metadata — nothing "additional" to report, before
        # or after other queries create their automatic indexes.
        scadr_db.prepare("SELECT * FROM users WHERE hometown LIKE [1: x] LIMIT 5")
        prepared = scadr_db.prepare(thoughtstream_sql)
        assert prepared.optimized.required_indexes == []
