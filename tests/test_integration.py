"""End-to-end integration and property-based tests across module boundaries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.errors import NotScaleIndependentError


SCHEMA = """
CREATE TABLE accounts (
    owner   VARCHAR(20),
    number  INT,
    kind    VARCHAR(10),
    balance FLOAT,
    PRIMARY KEY (owner, number),
    CARDINALITY LIMIT 20 (owner)
)
"""


def reference_filter(rows, owner, kind=None, limit=None, descending=True):
    """Straight-Python reference implementation used to check query answers."""
    matching = [r for r in rows if r["owner"] == owner]
    if kind is not None:
        matching = [r for r in matching if r["kind"] == kind]
    matching.sort(key=lambda r: r["number"], reverse=descending)
    return matching[:limit] if limit is not None else matching


class TestAgainstReferenceImplementation:
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["ann", "bob", "cat", "dan"]),
                st.integers(min_value=0, max_value=19),
                st.sampled_from(["savings", "checking"]),
                st.floats(min_value=0, max_value=1000, allow_nan=False),
            ),
            max_size=60,
            unique_by=lambda t: (t[0], t[1]),
        ),
        owner=st.sampled_from(["ann", "bob", "cat", "dan"]),
        limit=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_ordered_limit_queries_match_reference(self, rows, owner, limit):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=1))
        db.execute_ddl(SCHEMA)
        records = [
            {"owner": o, "number": n, "kind": k, "balance": b}
            for o, n, k, b in rows
        ]
        db.bulk_load("accounts", records)
        result = db.execute(
            f"SELECT * FROM accounts WHERE owner = <o> "
            f"ORDER BY number DESC LIMIT {limit}",
            {"o": owner},
        )
        expected = reference_filter(records, owner, limit=limit)
        assert [r["number"] for r in result.rows] == [r["number"] for r in expected]

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["ann", "bob"]),
                st.integers(min_value=0, max_value=19),
                st.sampled_from(["savings", "checking"]),
            ),
            max_size=40,
            unique_by=lambda t: (t[0], t[1]),
        ),
        owner=st.sampled_from(["ann", "bob"]),
        kind=st.sampled_from(["savings", "checking"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_filtered_queries_match_reference(self, rows, owner, kind):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=2))
        db.execute_ddl(SCHEMA)
        records = [
            {"owner": o, "number": n, "kind": k, "balance": 1.0} for o, n, k in rows
        ]
        db.bulk_load("accounts", records)
        result = db.execute(
            "SELECT * FROM accounts WHERE owner = <o> AND kind = <k>",
            {"o": owner, "k": kind},
        )
        expected = reference_filter(records, owner, kind=kind, descending=False)
        assert sorted(r["number"] for r in result.rows) == sorted(
            r["number"] for r in expected
        )


class TestScaleIndependenceInvariants:
    """The core promise: executed work never exceeds the static bound, at any size."""

    @pytest.mark.parametrize("users", [20, 200])
    def test_operations_independent_of_database_size(self, users, thoughtstream_sql):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=3))
        from repro.workloads.scadr.schema import scadr_ddl

        db.execute_ddl(scadr_ddl(10))
        rng = random.Random(9)
        names = [f"user{i:05d}" for i in range(users)]
        db.bulk_load(
            "users",
            ({"username": n, "password": "x", "hometown": "b", "created": 1}
             for n in names),
        )
        db.bulk_load(
            "subscriptions",
            (
                {"owner": n, "target": rng.choice(names), "approved": True}
                for n in names
                for _ in range(5)
            ),
        )
        db.bulk_load(
            "thoughts",
            (
                {"owner": n, "timestamp": t, "text": "hi"}
                for n in names
                for t in range(30)
            ),
        )
        prepared = db.prepare(thoughtstream_sql)
        operations = [
            prepared.execute(uname=rng.choice(names)).operations for _ in range(20)
        ]
        assert max(operations) <= prepared.operation_bound
        # The bound itself is independent of the number of users.
        assert prepared.operation_bound == 1 + 10

    def test_pagination_is_exhaustive_under_every_strategy(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=4))
        db.execute_ddl(SCHEMA)
        db.bulk_load(
            "accounts",
            (
                {"owner": "ann", "number": n, "kind": "savings", "balance": 1.0}
                for n in range(17)
            ),
        )
        for strategy in ExecutionStrategy:
            prepared = db.new_client(strategy=strategy).prepare(
                "SELECT * FROM accounts WHERE owner = <o> ORDER BY number ASC "
                "PAGINATE 5"
            )
            numbers = []
            for page in prepared.pages({"o": "ann"}):
                numbers.extend(row["number"] for row in page.rows)
            assert numbers == list(range(17)), strategy

    def test_queries_that_would_not_scale_are_rejected_up_front(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=5))
        db.execute_ddl(SCHEMA)
        with pytest.raises(NotScaleIndependentError):
            db.prepare("SELECT * FROM accounts WHERE kind = 'savings'")
        diagnosis = db.diagnose("SELECT * FROM accounts WHERE kind = 'savings'")
        assert "CARDINALITY LIMIT" in diagnosis.render()
