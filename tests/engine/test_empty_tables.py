"""Empty tables under every executor strategy.

A bounded query over tables that hold no row must return no row (a
``COUNT(*)`` returns one row counting zero), finish, and stay inside its
static bound on key/value operations, whichever strategy the view runs.
"""

import pytest

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.workloads.scadr.schema import scadr_ddl

#: name -> (query, the physical operator it must compile to, rows expected).
QUERIES = {
    "point lookup": (
        "SELECT * FROM users WHERE username = <u>",
        "IndexLookup(users, key=[<u>]",
        [],
    ),
    "auto-indexed equality": (
        "SELECT * FROM users WHERE hometown = <u> LIMIT 5",
        "IndexScan(users(hometown, username)",
        [],
    ),
    "order by limit": (
        "SELECT * FROM thoughts WHERE owner = <u> "
        "ORDER BY timestamp DESC LIMIT 10",
        "IndexScan(thoughts(primary), key=<u>, desc",
        [],
    ),
    "foreign-key join": (
        "SELECT u.* FROM subscriptions s JOIN users u "
        "WHERE u.username = s.target AND s.owner = <u>",
        "IndexFKJoin(users",
        [],
    ),
    "sorted index join": (
        "SELECT t.* FROM subscriptions s JOIN thoughts t "
        "WHERE t.owner = s.target AND s.owner = <u> AND s.approved = true "
        "ORDER BY t.timestamp DESC LIMIT 10",
        "SortedIndexJoin(thoughts(primary)",
        [],
    ),
    "count": (
        "SELECT COUNT(*) FROM subscriptions WHERE owner = <u>",
        "LocalAggregate(COUNT(*))",
        [{"count": 0}],
    ),
    "paginate": (
        "SELECT * FROM thoughts WHERE owner = <u> "
        "ORDER BY timestamp DESC PAGINATE 6",
        "LocalPaginate(6)",
        [],
    ),
}


@pytest.fixture(scope="module")
def empty_scadr() -> PiqlDatabase:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=7))
    db.execute_ddl(scadr_ddl(50))
    return db


@pytest.mark.parametrize("strategy", list(ExecutionStrategy), ids=lambda s: s.name)
@pytest.mark.parametrize("name", list(QUERIES))
def test_empty_tables_return_nothing_within_the_bound(empty_scadr, strategy, name):
    sql, operator, expected = QUERIES[name]
    query = empty_scadr.new_client(strategy=strategy).prepare(sql)
    assert operator in query.describe()

    result = query.execute(u="alice")

    assert result.rows == expected
    assert not result.has_more
    assert 1 <= result.operations <= query.operation_bound


@pytest.mark.parametrize("strategy", list(ExecutionStrategy), ids=lambda s: s.name)
def test_paginating_an_empty_table_yields_one_empty_page(empty_scadr, strategy):
    sql = QUERIES["paginate"][0]
    query = empty_scadr.new_client(strategy=strategy).prepare(sql)

    pages = list(query.pages(u="alice"))

    assert [page.rows for page in pages] == [[]]
