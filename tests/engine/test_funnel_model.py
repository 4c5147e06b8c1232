"""The three ways in are one (``hypothesis`` model test).

A blocking ``PreparedQuery.execute``, a ``Session.execute`` and a one-future
``Session.gather`` all go through ``Session._execute_page``, so over any
sequence of (query, parameters, strategy) three identically built databases
— one view per strategy each, the strategy being the view's — must return the same rows for the same number of key/value operations, or
refuse the same bindings with the same typed error — and the two ways of
paging a ``PAGINATE`` query must agree page by page, cursors included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.errors import ExecutionError
from repro.workloads.scadr.schema import scadr_ddl

USERS = ["alice", "bob", "carol", "dave"]

#: name -> (SQL, the parameters it needs, declared maxima)
QUERIES = {
    "user": ("SELECT * FROM users WHERE username = <u>", {"u"}, {}),
    "recent": (
        "SELECT * FROM thoughts WHERE owner = <u> "
        "ORDER BY timestamp DESC LIMIT [1: n(5)]",
        {"u"}, {"n": 5},
    ),
    "paged": (
        "SELECT * FROM thoughts WHERE owner = <u> "
        "ORDER BY timestamp DESC PAGINATE 6",
        {"u"}, {},
    ),
    "named": (
        "SELECT * FROM users WHERE username IN [1: names(3)]",
        {"names"}, {"names": 3},
    ),
    "stream": (
        "SELECT t.* FROM subscriptions s JOIN thoughts t "
        "WHERE t.owner = s.target AND s.owner = <u> AND s.approved = true "
        "ORDER BY t.timestamp DESC LIMIT 10",
        {"u"}, {},
    ),
}

parameters = st.fixed_dictionaries(
    {},
    optional={
        "u": st.sampled_from(USERS),
        "n": st.integers(min_value=-1, max_value=8),
        "names": st.lists(st.sampled_from(USERS), max_size=5),
    },
)
steps = st.lists(
    st.tuples(
        st.sampled_from(sorted(QUERIES)),
        parameters,
        st.sampled_from(list(ExecutionStrategy)),
    ),
    min_size=1,
    max_size=5,
)


def build() -> dict:
    """One view per strategy over one freshly loaded database."""
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=7))
    db.execute_ddl(scadr_ddl(max_subscriptions=100))
    db.bulk_load("users", [
        {"username": name, "password": "pw", "hometown": "berkeley",
         "created": 1_000 + index}
        for index, name in enumerate(USERS)
    ])
    db.bulk_load("thoughts", [
        {"owner": name, "timestamp": 1_000_000 + sequence,
         "text": f"thought {sequence} from {name}"}
        for name in USERS for sequence in range(20)
    ])
    db.bulk_load("subscriptions", [
        {"owner": "alice", "target": target, "approved": target != "dave"}
        for target in USERS[1:]
    ])
    return {
        strategy: db.new_client(strategy=strategy)
        for strategy in ExecutionStrategy
    }


def breaks_its_declaration(name: str, bound: dict) -> bool:
    """The model of ``bind_parameters``: what the query text rules out."""
    _, needed, maxima = QUERIES[name]
    if not needed <= set(bound):
        return True
    for parameter, maximum in maxima.items():
        value = bound.get(parameter)
        size = len(value) if isinstance(value, list) else value
        if size is not None and not 0 <= size <= maximum:
            return True
    return False


def blocking(db, sql, bound):
    return db.prepare(sql).execute(bound)


def inline(db, sql, bound):
    return db.session().execute(sql, bound).to_query_result()


def gathered(db, sql, bound):
    session = db.session()
    future = session.submit(sql, bound)
    return session.gather(future)[0].to_query_result()


def facts(page):
    return page.rows, page.operations, page.has_more, page.cursor


def outcome(way_in, db, sql, bound):
    before = db.client.stats.operations
    try:
        page = way_in(db, sql, bound)
    except ExecutionError as error:
        assert db.client.stats.operations == before
        return str(error)
    assert page.operations == db.client.stats.operations - before
    return facts(page)


@settings(max_examples=60, deadline=None)
@given(steps)
def test_three_ways_in_one_outcome(sequence):
    ways = [(blocking, build()), (inline, build()), (gathered, build())]
    for name, bound, strategy in sequence:
        sql = QUERIES[name][0]
        outcomes = [
            outcome(way_in, views[strategy], sql, bound)
            for way_in, views in ways
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert isinstance(outcomes[0], str) == breaks_its_declaration(name, bound)
        if name == "paged" and not isinstance(outcomes[0], str):
            (_, by_query), (_, by_cursor), _ = ways
            by_pages = by_query[strategy].prepare(sql).pages(bound)
            cursor = by_cursor[strategy].session().execute(sql, bound)
            assert [facts(page) for page in by_pages] == [
                facts(page) for page in cursor.pages()
            ]
