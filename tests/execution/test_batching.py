"""Batch-at-a-time executor tests: fusion, stop-aware dereference, pushdown.

Round fusion, stop-aware early termination, predicate pushdown, and key
deduplication must never change *what* a query computes — rows, per-query
operation counts, and static bounds are invariants; only the RPC round
structure and the latency composition may differ.  These tests pin the
invariants on the edge cases: empty child sets, duplicate keys, descending
paginated scans with resume positions, stop boundaries exactly on a chunk
edge, and the LAZY-versus-PARALLEL round split.

Rows are checked against literals and against the Lazy executor — the
tuple-at-a-time path that runs none of the batching and is the live
row-level reference.  Operation counts are pinned to the numbers the
retired tuple-at-a-time SIMPLE/PARALLEL arm charged (``fused=False``,
removed in PR 17): skipped fetches must still be charged as requested work.
"""

import random

import pytest

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.execution.evaluate import sort_rows, top_k_rows
from repro.plans import logical as L
from repro.storage.rows import (
    cached_pk_key,
    clear_row_caches,
    deserialize_pk,
    deserialize_row,
    pk_key,
    serialize_row,
)

LIBRARY_DDL = """
CREATE TABLE writers (
    wid     INT,
    lname   VARCHAR(32),
    PRIMARY KEY (wid),
    CARDINALITY LIMIT 10 (lname)
);

CREATE TABLE books (
    bid     INT,
    wid     INT,
    title   VARCHAR(64),
    PRIMARY KEY (bid),
    CARDINALITY LIMIT 20 (wid)
)
"""

BOOKS_BY_LNAME = (
    "SELECT b.title FROM writers w JOIN books b "
    "WHERE w.lname = <n> AND b.wid = w.wid ORDER BY b.title ASC LIMIT {limit}"
)


def library_db() -> PiqlDatabase:
    """Writers sharing a last name, each with a handful of titled books."""
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=21))
    db.execute_ddl(LIBRARY_DDL)
    bid = 0
    for wid, (lname, titles) in enumerate(
        [
            ("shared", ["delta", "alpha", "echo"]),
            ("shared", ["bravo", "golf"]),
            ("shared", ["charlie", "foxtrot", "hotel"]),
            ("solo", ["india"]),
            ("bookless", []),
        ]
    ):
        db.insert("writers", {"wid": wid, "lname": lname})
        for title in titles:
            db.insert("books", {"bid": bid, "wid": wid, "title": title})
            bid += 1
    # A second bookless writer shares the name, making a child whose range
    # comes back empty inside a multi-child join.
    db.insert("writers", {"wid": 90, "lname": "bookless"})
    return db


def prepared_under(db, strategy, sql):
    """``sql`` prepared on a view of ``db`` that runs ``strategy``: the
    strategy is a property of the view."""
    return db.new_client(strategy=strategy).prepare(sql)


def all_strategy_rows(db, sql, parameters):
    return {
        strategy: prepared_under(db, strategy, sql).execute(dict(parameters)).rows
        for strategy in ExecutionStrategy
    }


class TestFusedSortedJoin:
    def test_multi_child_join_rows_identical_everywhere(self):
        expected = [{"title": t} for t in
                    ["alpha", "bravo", "charlie", "delta", "echo"]]
        rows = all_strategy_rows(
            library_db(), BOOKS_BY_LNAME.format(limit=5), {"n": "shared"}
        )
        assert set(rows) == set(ExecutionStrategy)
        for strategy, got in rows.items():
            assert got == expected, strategy

    def test_fused_join_issues_one_dereference_round(self):
        db = library_db()
        prepared = db.prepare(BOOKS_BY_LNAME.format(limit=5))
        before = db.client.stats.snapshot()
        prepared.execute({"n": "shared"})
        delta = db.client.stats.snapshot().delta(before)
        # One bulk round for the join's dereference plus one for the
        # (secondary) writers scan — versus one round per matching writer.
        assert delta.dereference_rounds == 2
        # The stop (5) pruned the dereference of the other fetched entries.
        assert delta.saved_reads > 0

    def test_operations_pinned_whatever_the_stop_saves(self):
        # 3 writer entries + 3 writer dereferences + 3 book ranges + 8 book
        # entries' dereferences, of which the stop of 5 skips 3: the skipped
        # fetches are still charged, so the count does not depend on the
        # stop (8 and 9 skip nothing) and stays inside the static bound.
        for limit, saved in [(5, 3), (8, 0), (9, 0)]:
            db = library_db()
            for strategy in (ExecutionStrategy.SIMPLE, ExecutionStrategy.PARALLEL):
                view = db.new_client(strategy=strategy)
                prepared = view.prepare(BOOKS_BY_LNAME.format(limit=limit))
                before = view.client.stats.snapshot()
                result = prepared.execute({"n": "shared"})
                delta = view.client.stats.snapshot().delta(before)
                assert result.operations == 15, (limit, strategy)
                assert delta.saved_reads == saved, (limit, strategy)
                assert result.operations <= prepared.operation_bound

    def test_lazy_ignores_fusion_entirely(self):
        db = library_db()
        view = db.new_client(strategy=ExecutionStrategy.LAZY)
        before = view.client.stats.snapshot()
        lazy = view.prepare(BOOKS_BY_LNAME.format(limit=5)).execute({"n": "shared"})
        delta = view.client.stats.snapshot().delta(before)
        parallel = db.prepare(BOOKS_BY_LNAME.format(limit=5)).execute({"n": "shared"})
        assert lazy.rows == parallel.rows
        # LAZY dereferences one tuple per request: every fetched entry of
        # the scan and the join pays its own round, nothing is saved.
        assert delta.dereference_rounds > 2
        assert delta.saved_reads == 0

    def test_empty_child_set(self):
        db = library_db()
        for strategy in ExecutionStrategy:
            prepared = prepared_under(db, strategy, BOOKS_BY_LNAME.format(limit=5))
            result = prepared.execute({"n": "nobody"})
            assert result.rows == [], strategy
            # Only the writers range is ever requested.
            assert result.operations == 1, strategy

    def test_children_with_empty_ranges(self):
        # Both "bookless" writers match the scan but contribute no entries.
        db = library_db()
        for strategy in ExecutionStrategy:
            prepared = prepared_under(db, strategy, BOOKS_BY_LNAME.format(limit=5))
            result = prepared.execute({"n": "bookless"})
            assert result.rows == [], strategy
            if strategy is not ExecutionStrategy.LAZY:
                # 1 writers range + 2 dereferences + 2 (empty) book ranges.
                assert result.operations == 5, strategy
                assert result.operations <= prepared.operation_bound

    def test_stop_exactly_on_chunk_edge(self):
        # 8 "shared" books total: a stop of exactly 8 consumes the whole
        # entry stream in one chunk; 9 needs (and finds) nothing more.
        full = [{"title": t} for t in
                ["alpha", "bravo", "charlie", "delta", "echo",
                 "foxtrot", "golf", "hotel"]]
        db = library_db()
        for limit, expected in [(8, full), (9, full)]:
            for strategy in ExecutionStrategy:
                prepared = prepared_under(
                    db, strategy, BOOKS_BY_LNAME.format(limit=limit)
                )
                result = prepared.execute({"n": "shared"})
                assert result.rows == expected, (limit, strategy)
                if strategy is not ExecutionStrategy.LAZY:
                    assert result.operations == 15, (limit, strategy)
                    assert result.operations <= prepared.operation_bound


class TestDuplicateKeyDedupe:
    FAN_IN = (
        "SELECT w.lname FROM books b JOIN writers w "
        "WHERE b.wid = <w> AND w.wid = b.wid"
    )

    def test_fk_join_dedupes_repeated_targets(self):
        # Every book of writer 0 references the same writer row: the
        # batched executor fetches it once but still charges one logical
        # lookup per child tuple; the Lazy executor really fetches it thrice.
        db = library_db()
        prepared = db.prepare(self.FAN_IN)
        batched = prepared.execute({"w": 0})
        assert batched.rows == [{"lname": "shared"}] * 3
        # 1 books range + 3 book dereferences + 3 writer lookups.
        assert batched.operations == 7
        assert batched.operations <= prepared.operation_bound
        assert db.client.stats.saved_reads == 2   # 3 lookups, 1 fetch
        view = db.new_client(strategy=ExecutionStrategy.LAZY)
        lazy = view.prepare(self.FAN_IN).execute({"w": 0})
        assert lazy.rows == batched.rows
        assert view.client.stats.saved_reads == 0   # LAZY saves nothing

    def test_in_list_lookup_dedupes_duplicate_keys(self, scadr_db):
        sql = (
            "SELECT * FROM subscriptions WHERE target = <t> "
            "AND owner IN [1: friends(10)]"
        )
        result = scadr_db.execute(
            sql, {"t": "alice", "friends": ["bob", "bob", "carol"]}
        )
        assert [row["owner"] for row in result.rows] == ["bob", "bob"]
        assert scadr_db.client.stats.saved_reads == 1


class TestPushdown:
    def test_residual_filter_pushed_to_primary_scan(self, scadr_db,
                                                    thoughtstream_sql):
        # The thoughtstream approval filter now runs server-side: nodes
        # report filtered keys, and results match the reference exactly.
        result = scadr_db.execute(thoughtstream_sql, {"uname": "alice"})
        assert {row["owner"] for row in result.rows} == {"bob", "carol"}
        assert sum(
            node.stats.keys_filtered for node in scadr_db.cluster.nodes
        ) > 0

    def test_pushdown_rows_match_lazy_and_operations_pinned(self):
        sql = (
            "SELECT b.title FROM books b WHERE b.wid = <w> AND b.bid >= 1 "
        )
        db = library_db()
        prepared = db.prepare(sql)
        pushed = prepared.execute({"w": 0})
        lazy = prepared_under(db, ExecutionStrategy.LAZY, sql).execute({"w": 0})
        # The Lazy executor filters after materialising every row.
        assert pushed.rows == lazy.rows
        assert sorted(r["title"] for r in pushed.rows) == ["alpha", "echo"]
        # 1 range + 3 entries examined: the pruned entry's dereference is
        # charged although never issued.
        assert pushed.operations == 4
        assert pushed.operations <= prepared.operation_bound

    def test_pushdown_on_secondary_entries_prunes_dereference(self):
        # bid is recoverable from the (wid, bid) index entry key, so the
        # batched executor never dereferences the filtered-out book.
        sql = "SELECT b.title FROM books b WHERE b.wid = <w> AND b.bid >= 1 "
        db = library_db()
        db.prepare(sql).execute({"w": 0})
        assert db.client.stats.saved_reads == 1

    def test_descending_paginated_scan_with_pushed_inequality(self, scadr_db):
        sql = (
            "SELECT * FROM thoughts WHERE owner = <u> AND timestamp <> <skip> "
            "ORDER BY timestamp DESC PAGINATE 6"
        )
        prepared = scadr_db.prepare(sql)
        seen = []
        for page in prepared.pages(u="carol", skip=1_000_010):
            assert len(page.rows) <= 6
            seen.extend(row["timestamp"] for row in page.rows)
        expected = [t for t in range(1_000_019, 999_999, -1) if t != 1_000_010]
        assert seen == expected

    def test_paginated_pushdown_matches_lazy(self, scadr_db):
        sql = (
            "SELECT * FROM thoughts WHERE owner = <u> AND timestamp <> <skip> "
            "ORDER BY timestamp ASC PAGINATE 7"
        )
        by_strategy = {}
        for strategy in (ExecutionStrategy.LAZY, ExecutionStrategy.PARALLEL):
            prepared = prepared_under(scadr_db, strategy, sql)
            rows = []
            for page in prepared.pages(u="carol", skip=1_000_003):
                rows.extend(page.rows)
            by_strategy[strategy] = rows
        assert by_strategy[ExecutionStrategy.LAZY] == \
            by_strategy[ExecutionStrategy.PARALLEL]


class TestCountPushdown:
    def test_count_star_uses_count_range(self, scadr_db):
        result = scadr_db.execute(
            "SELECT COUNT(*) FROM subscriptions WHERE owner = <u>", {"u": "alice"}
        )
        assert result.rows[0]["count"] == 3
        # One counter probe instead of a range fetch plus three dereferences.
        assert result.operations == 1

    def test_count_star_lazy_matches(self, scadr_db):
        sql = "SELECT COUNT(*) FROM subscriptions WHERE owner = <u>"
        lazy = prepared_under(scadr_db, ExecutionStrategy.LAZY, sql).execute(
            {"u": "alice"}
        )
        fast = scadr_db.prepare(sql).execute({"u": "alice"})
        assert lazy.rows == fast.rows
        assert lazy.operations > fast.operations

    def test_count_with_residual_predicate_not_rerouted(self, scadr_db):
        # A residual predicate disqualifies the count_range fast path; the
        # scan still runs (here as a filtered primary range) and the count
        # reflects the filter in every strategy.
        sql = (
            "SELECT COUNT(*) FROM subscriptions WHERE owner = <u> "
            "AND approved = true"
        )
        fast = scadr_db.prepare(sql).execute({"u": "alice"})
        lazy = prepared_under(scadr_db, ExecutionStrategy.LAZY, sql).execute(
            {"u": "alice"}
        )
        assert fast.rows == lazy.rows == [{"count": 2}]

    def test_count_respects_scan_limit(self, scadr_db):
        result = scadr_db.execute(
            "SELECT COUNT(*) FROM thoughts WHERE owner = <u> LIMIT 5",
            {"u": "carol"},
        )
        assert result.rows[0]["count"] == 5

    def test_paginated_count_stands_down(self, scadr_db):
        # A paginated COUNT counts one page per execution; the count_range
        # fast path must not collapse the cursor to a single page.
        sql = "SELECT COUNT(*) FROM thoughts WHERE owner = <u> PAGINATE 8"
        for strategy in (ExecutionStrategy.LAZY, ExecutionStrategy.PARALLEL):
            counts = [
                page.rows[0]["count"]
                for page in prepared_under(scadr_db, strategy, sql).pages(u="carol")
            ]
            assert counts == [8, 8, 4], strategy


class TestTopKSelection:
    def test_top_k_matches_sort_then_truncate(self):
        rng = random.Random(5)
        rows = [
            {"t": {"a": rng.randrange(6), "b": rng.choice([None, rng.random()])}}
            for _ in range(200)
        ]
        keys = (
            (L.BoundColumn(relation="t", table="t", column="a"), True),
            (L.BoundColumn(relation="t", table="t", column="b"), False),
        )
        for k in (0, 1, 7, 199, 200, 500):
            assert top_k_rows(list(rows), keys, k) == sort_rows(rows, keys)[:k]


class TestRowCaches:
    def test_deserialize_row_cache_hits_are_isolated(self):
        clear_row_caches()
        payload = serialize_row({"a": 1, "b": "x"})
        first = deserialize_row(payload)
        first["a"] = 999
        second = deserialize_row(payload)
        assert second == {"a": 1, "b": "x"}

    def test_cached_pk_key_matches_uncached(self):
        clear_row_caches()
        payload = b'["alice", 42]'
        assert cached_pk_key(payload) == pk_key(deserialize_pk(payload))
        # Second call is served from the intern table, same value.
        assert cached_pk_key(payload) == pk_key(deserialize_pk(payload))
