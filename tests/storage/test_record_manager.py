"""Unit tests for the record manager, index maintenance, and constraints."""

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.errors import (
    CardinalityViolationError,
    ExecutionError,
    UniquenessViolationError,
)
from repro.schema.ddl import IndexColumn, IndexDefinition
from repro.storage.fulltext import query_token, tokenize
from repro.storage.rows import (
    deserialize_pk,
    deserialize_row,
    index_entries,
    record_key,
    serialize_pk,
    serialize_row,
)
from repro.views.maintenance import recompute_view, visible_row
from repro.workloads.scadr.schema import scadr_ddl


@pytest.fixture
def db() -> PiqlDatabase:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=11))
    db.execute_ddl(scadr_ddl(max_subscriptions=3))
    return db


class TestTokenizer:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Hello, World! HELLO") == ["hello", "world"]

    def test_tokenize_empty(self):
        assert tokenize("") == []
        assert tokenize("!!!") == []

    def test_query_token_strips_wildcards(self):
        assert query_token("%Database%") == "database"
        assert query_token("two words") == "two"
        assert query_token("") == ""


class TestRowSerialization:
    def test_row_roundtrip(self):
        row = {"a": 1, "b": "text", "c": None, "d": True}
        assert deserialize_row(serialize_row(row)) == row

    def test_pk_roundtrip(self):
        assert deserialize_pk(serialize_pk(["alice", 42])) == ["alice", 42]

    def test_index_entries_tokenized(self, db):
        catalog = db.catalog
        users = catalog.table("users")
        index = IndexDefinition(
            "idx_town", "users", (IndexColumn("hometown", tokenized=True),)
        )
        row = {"username": "a", "password": "p", "hometown": "san francisco",
               "created": 1}
        entries = list(index_entries(index, users, row))
        assert len(entries) == 2  # one posting per token
        assert all(deserialize_pk(value) == ["a"] for _, value in entries)

    def test_index_entries_skip_missing_token_value(self, db):
        users = db.catalog.table("users")
        index = IndexDefinition(
            "idx_town", "users", (IndexColumn("hometown", tokenized=True),)
        )
        row = {"username": "a", "password": "p", "hometown": None, "created": 1}
        assert list(index_entries(index, users, row)) == []


class TestInsertProtocol:
    def test_insert_and_get(self, db):
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        assert db.get("users", ["bob"])["hometown"] == "sf"

    def test_duplicate_primary_key_rejected(self, db):
        row = {"username": "bob", "password": "x", "hometown": "sf", "created": 1}
        db.insert("users", row)
        with pytest.raises(UniquenessViolationError):
            db.insert("users", row)

    def test_upsert_allows_overwrite(self, db):
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        db.insert("users", {"username": "bob", "password": "y", "hometown": "la",
                            "created": 2}, upsert=True)
        assert db.get("users", ["bob"])["hometown"] == "la"

    def test_cardinality_limit_enforced(self, db):
        for target in ("a", "b", "c"):
            db.insert("subscriptions", {"owner": "bob", "target": target,
                                        "approved": True})
        with pytest.raises(CardinalityViolationError):
            db.insert("subscriptions", {"owner": "bob", "target": "d",
                                        "approved": True})
        # The violating record was rolled back.
        assert db.get("subscriptions", ["bob", "d"]) is None
        # A different owner is unaffected.
        db.insert("subscriptions", {"owner": "carol", "target": "a",
                                    "approved": True})

    def test_delete_removes_record(self, db):
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        assert db.delete("users", ["bob"]) is True
        assert db.get("users", ["bob"]) is None
        assert db.delete("users", ["bob"]) is False


CAPPED_DDL = (
    "CREATE TABLE users (username VARCHAR(20), hometown VARCHAR(20), "
    "PRIMARY KEY (username), CARDINALITY LIMIT 2 (hometown))"
)
HOMETOWN_COUNTS = (
    "CREATE MATERIALIZED VIEW hometown_counts AS "
    "SELECT hometown, COUNT(*) AS n FROM users GROUP BY hometown"
)


class TestCardinalityUndo:
    """Every write that can grow a group counts it, and a refused one puts
    back what it overwrote: ``sf`` is full (a, b) and ``c`` lives in ``la``."""

    @pytest.fixture
    def capped(self) -> PiqlDatabase:
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=11))
        db.execute_ddl(CAPPED_DDL)
        db.create_materialized_view(HOMETOWN_COUNTS)
        for name, hometown in (("a", "sf"), ("b", "sf"), ("c", "la")):
            db.insert("users", {"username": name, "hometown": hometown})
        return db

    @staticmethod
    def _state(db):
        """Every stored row, every index entry and the materialized view."""
        view = db.catalog.view("hometown_counts")
        entries = {
            index.name: list(db.cluster.iter_namespace(index.namespace))
            for index in db.catalog.indexes_for_table("users")
        }
        materialized = {
            (row["hometown"],): visible_row(view, row)
            for row in db.records.scan(view.backing_table.name)
        }
        assert materialized == recompute_view(view, db.catalog, db.cluster)
        return db.records.scan("users"), entries, materialized

    def _refused(self, db, write):
        before = self._state(db)
        assert before[1] and all(before[1].values())
        with pytest.raises(CardinalityViolationError):
            write()
        assert self._state(db) == before
        assert db.get("users", ["c"]) == {"username": "c", "hometown": "la"}
        rows = db.execute("SELECT * FROM users WHERE hometown = 'sf'").rows
        assert sorted(row["username"] for row in rows) == ["a", "b"]

    def test_an_update_into_a_full_group_is_refused(self, capped):
        self._refused(capped, lambda: capped.update(
            "users", {"username": "c", "hometown": "sf"}
        ))

    def test_a_refused_overwriting_upsert_keeps_the_old_row(self, capped):
        self._refused(capped, lambda: capped.insert(
            "users", {"username": "c", "hometown": "sf"}, upsert=True
        ))
        self._refused(capped, lambda: capped.insert_many("users", [
            {"username": "c", "hometown": "sf"},
            {"username": "d", "hometown": "sf"},
        ], upsert=True))
        assert capped.get("users", ["d"]) is None

    def test_a_write_that_keeps_its_group_is_not_counted(self, capped):
        before = capped.client.stats.operations
        capped.update("users", {"username": "a", "hometown": "sf"})
        # The get and the put; the view skips a delta that changes nothing.
        assert capped.client.stats.operations - before == 2
        capped.update("users", {"username": "c", "hometown": "ny"})
        assert self._state(capped)[2][("ny",)] == {"hometown": "ny", "n": 1}


class TestDeleteProtocol:
    """A delete reads the old row only when its index entries or view
    contributions must be retracted."""

    def _user(self, db, name, hometown="sf"):
        db.insert("users", {"username": name, "password": "x",
                            "hometown": hometown, "created": 1})

    def _rpcs(self, db, delete):
        before = db.client.stats.snapshot()
        existed = delete()
        return existed, db.client.stats.delta(before).rpcs

    def test_a_plain_table_delete_is_one_rpc(self, db):
        self._user(db, "bob")
        assert self._rpcs(db, lambda: db.delete("users", ["bob"])) == (True, 1)
        assert db.get("users", ["bob"]) is None
        assert self._rpcs(db, lambda: db.delete("users", ["bob"])) == (False, 1)
        self._user(db, "carol")
        assert self._rpcs(
            db, lambda: db.delete_many("users", [["carol"], ["dave"]])
        ) == ([True, False], 1)
        assert db.records.count("users") == 0

    def test_an_indexed_table_delete_removes_the_entries(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        index = db.catalog.index("idx_hometown")
        for name in ("bob", "carol", "dave"):
            self._user(db, name)
        assert self._rpcs(db, lambda: db.delete("users", ["bob"])) == (True, 3)
        assert db.cluster.namespace_size(index.namespace) == 2
        # A batch: one multi_get, one delete of the records, one of the
        # index entries.
        assert self._rpcs(
            db, lambda: db.delete_many("users", [["carol"], ["dave"], ["erin"]])
        ) == ([True, True, False], 3)
        assert db.cluster.namespace_size(index.namespace) == 0

    def test_a_view_driving_table_delete_retracts_the_delta(self, db):
        db.create_materialized_view(
            "CREATE MATERIALIZED VIEW hometown_counts AS "
            "SELECT hometown, COUNT(*) AS n FROM users GROUP BY hometown"
        )
        query = db.prepare(
            "SELECT hometown, COUNT(*) AS n FROM users "
            "WHERE hometown = <town> GROUP BY hometown"
        )
        for name in ("bob", "carol", "dave"):
            self._user(db, name)
        assert query.execute(town="sf").rows == [{"hometown": "sf", "n": 3}]
        assert db.delete("users", ["bob"]) is True
        assert query.execute(town="sf").rows == [{"hometown": "sf", "n": 2}]
        assert db.delete_many("users", [["carol"], ["erin"]]) == [True, False]
        assert query.execute(town="sf").rows == [{"hometown": "sf", "n": 1}]


class TestBatchedInsert:
    def test_a_batch_writes_each_namespace_once(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        before = db.client.stats.snapshot()
        rows = db.insert_many("users", [
            {"username": name, "password": "x", "hometown": "sf", "created": 1}
            for name in ("bob", "carol", "dave")
        ], upsert=True)
        spent = db.client.stats.delta(before)
        # The index entries, then the records: two RPCs, six operations.
        assert (spent.rpcs, spent.operations) == (2, 6)
        assert [row["username"] for row in rows] == ["bob", "carol", "dave"]
        index = db.catalog.index("idx_hometown")
        assert db.cluster.namespace_size(index.namespace) == 3

    def test_a_duplicate_in_a_batch_stops_it_and_undoes_its_entries(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.insert("users", {"username": "carol", "password": "x",
                            "hometown": "la", "created": 1})
        with pytest.raises(UniquenessViolationError):
            db.insert_many("users", [
                {"username": name, "password": "x", "hometown": "sf",
                 "created": 2}
                for name in ("bob", "carol", "dave")
            ])
        # The rows before the duplicate are in, the duplicate and the rows
        # after it are not, and only live rows keep index entries.
        assert db.get("users", ["bob"]) is not None
        assert db.get("users", ["carol"])["hometown"] == "la"
        assert db.get("users", ["dave"]) is None
        index = db.catalog.index("idx_hometown")
        assert db.cluster.namespace_size(index.namespace) == 2

    def test_a_batch_may_not_name_one_record_twice(self, db):
        row = {"username": "bob", "password": "x", "hometown": "sf",
               "created": 1}
        with pytest.raises(ExecutionError):
            db.insert_many("users", [row, dict(row)], upsert=True)
        with pytest.raises(ExecutionError):
            db.delete_many("users", [["bob"], ["bob"]])
        assert db.records.count("users") == 0


class TestIndexMaintenance:
    def _entry_count(self, db, index_name):
        index = db.catalog.index(index_name)
        return db.cluster.namespace_size(index.namespace)

    def test_secondary_index_updated_on_insert_and_delete(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        assert self._entry_count(db, "idx_hometown") == 1
        db.delete("users", ["bob"])
        assert self._entry_count(db, "idx_hometown") == 0

    def test_update_replaces_stale_entries(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        db.update("users", {"username": "bob", "password": "x", "hometown": "la",
                            "created": 1})
        index = db.catalog.index("idx_hometown")
        entries = list(db.cluster.iter_namespace(index.namespace))
        assert len(entries) == 1
        # The remaining entry is for the new value.
        row = db.get("users", ["bob"])
        assert row["hometown"] == "la"

    def test_failed_duplicate_insert_keeps_survivor_entries(self, db):
        """The uniqueness-violation undo must not strip the surviving row
        out of its indexes when the duplicate shares its indexed values."""
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        import pytest as _pytest
        from repro.errors import UniquenessViolationError
        with _pytest.raises(UniquenessViolationError):
            db.insert("users", {"username": "bob", "password": "y",
                                "hometown": "sf", "created": 2})
        assert self._entry_count(db, "idx_hometown") == 1
        rows = db.execute(
            "SELECT * FROM users WHERE hometown = 'sf' LIMIT 5"
        ).rows
        assert [r["username"] for r in rows] == ["bob"]

    def test_upsert_overwrite_removes_stale_entries_on_view_tables(self, db):
        """On a view-driving table the old row is read anyway (contribution
        retraction), so upsert overwrites also clean their stale entries."""
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.create_materialized_view(
            "CREATE MATERIALIZED VIEW hometown_counts AS "
            "SELECT hometown, COUNT(*) AS n FROM users GROUP BY hometown"
        )
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1}, upsert=True)
        db.insert("users", {"username": "bob", "password": "x", "hometown": "la",
                            "created": 1}, upsert=True)
        index = db.catalog.index("idx_hometown")
        entries = list(db.cluster.iter_namespace(index.namespace))
        # The overwrite deleted the old row's sf entry: no phantom match.
        assert len(entries) == 1

    def test_update_skips_unchanged_index_entries(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        db.insert("users", {"username": "bob", "password": "x", "hometown": "sf",
                            "created": 1})
        before = db.client.stats.operations
        # hometown (the indexed value) is unchanged: the update must cost
        # exactly the base record's get + put — no index rewrites at all.
        db.update("users", {"username": "bob", "password": "y", "hometown": "sf",
                            "created": 1})
        assert db.client.stats.operations - before == 2
        assert self._entry_count(db, "idx_hometown") == 1

    def test_backfill_on_late_index_creation(self, db):
        for name in ("a", "b", "c"):
            db.insert("users", {"username": name, "password": "x",
                                "hometown": "sf", "created": 1})
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        assert self._entry_count(db, "idx_hometown") == 3

    def test_bulk_load_populates_indexes(self, db):
        db.create_index(
            IndexDefinition("idx_hometown", "users",
                            (IndexColumn("hometown"), IndexColumn("username")))
        )
        count = db.bulk_load(
            "users",
            ({"username": f"u{i}", "password": "x", "hometown": "sf", "created": i}
             for i in range(10)),
        )
        assert count == 10
        assert db.records.count("users") == 10
        assert self._entry_count(db, "idx_hometown") == 10

    def test_record_key_uses_primary_key_order(self, db):
        table = db.catalog.table("subscriptions")
        row = {"owner": "a", "target": "b", "approved": True}
        assert record_key(table, row) == record_key(table, dict(reversed(list(row.items()))))
