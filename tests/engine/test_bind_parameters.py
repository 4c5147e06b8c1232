"""Declared parameter cardinalities are enforced where parameters are bound.

A query's static bound rests on what its text declares (``LIMIT [1: n(5)]``,
``IN [1: ids(3)]``), so a binding that breaks the declaration is refused by
``bind_parameters`` with a typed error *before any key/value operation* — on
the blocking path, through ``submit`` + ``gather``, and on a later page of a
paginated query alike, because all three go through one function.
"""

from __future__ import annotations

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.errors import ExecutionError

LIMITED = "SELECT * FROM t WHERE g = <x> LIMIT [1: n(5)]"
PAGED = "SELECT * FROM u WHERE g = <x> PAGINATE [1: n(5)]"
IN_LIST = "SELECT * FROM t WHERE id IN [1: ids(3)]"

#: Stop counts that break ``LIMIT [1: n(5)]`` and what the error says.
BAD_COUNTS = [
    (20, "more than the 5"),
    (-1, "non-negative integer"),
    (2.5, "non-negative integer"),
    ("abc", "non-negative integer"),
    (None, "non-negative integer"),
    (True, "non-negative integer"),
]


@pytest.fixture
def db() -> PiqlDatabase:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=3))
    db.execute_ddl("CREATE TABLE t (id INT, g INT, v INT, PRIMARY KEY (id))")
    db.execute_ddl("CREATE TABLE u (g INT, id INT, v INT, PRIMARY KEY (g, id))")
    for index in range(40):
        db.insert("t", {"id": index, "g": 1, "v": index})
        db.insert("u", {"g": 1, "id": index, "v": index})
    return db


def blocking(db, sql, parameters):
    query = db.prepare(sql)
    return lambda: query.execute(parameters)


def submitted(db, sql, parameters):
    db.prepare(sql)  # compiling may create (and backfill) an index
    session = db.session()
    return lambda: session.gather(session.submit(sql, parameters))


def second_page(db, sql, parameters):
    query = db.prepare(sql)
    first = query.execute(x=1, n=2)
    assert first.has_more
    return lambda: query.execute(parameters, cursor=first.cursor)


def refused(db, run, match):
    """``run`` raises the typed error and costs no key/value operation."""
    before = db.client.stats.operations
    with pytest.raises(ExecutionError, match=match):
        run()
    assert db.client.stats.operations == before


@pytest.mark.parametrize("way_in, sql", [
    pytest.param(blocking, LIMITED, id="blocking"),
    pytest.param(submitted, LIMITED, id="submit+gather"),
    pytest.param(blocking, PAGED, id="first-page"),
    pytest.param(second_page, PAGED, id="second-page"),
])
class TestRefusedBeforeAnyOperation:
    @pytest.mark.parametrize("count, match", BAD_COUNTS)
    def test_stop_count_outside_its_declaration(self, db, way_in, sql, count, match):
        refused(db, way_in(db, sql, {"x": 1, "n": count}), match)

    def test_missing_name(self, db, way_in, sql):
        refused(db, way_in(db, sql, {"n": 3}), "'x' was not bound")


@pytest.mark.parametrize("way_in", [blocking, submitted])
@pytest.mark.parametrize("ids, match", [
    ([1, 2, 3, 4, 5, 6], "more than the 3"),
    # Length counts, not distinct values: five copies are five lookups.
    ([7] * 5, "more than the 3"),
    (7, "must be bound to a list"),
])
def test_in_list_outside_its_declaration(db, way_in, ids, match):
    refused(db, way_in(db, IN_LIST, {"ids": ids}), match)


class TestWhatStaysAccepted:
    def test_unbound_stop_count_means_its_declared_maximum(self, db):
        result = db.prepare(LIMITED).execute(x=1)
        assert len(result.rows) == 5
        assert result.operations <= db.prepare(LIMITED).operation_bound

    def test_counts_up_to_the_maximum_and_zero(self, db):
        query = db.prepare(LIMITED)
        assert [len(query.execute(x=1, n=n).rows) for n in (0, 1, 5)] == [0, 1, 5]
        assert db.prepare(PAGED).execute(x=1, n=0).rows == []

    def test_lists_up_to_the_maximum_and_empty(self, db):
        query = db.prepare(IN_LIST)
        assert len(query.execute(ids=[1, 2, 3]).rows) == 3
        assert len(query.execute(ids=(4, 5)).rows) == 2
        assert query.execute(ids=[]).rows == []

    def test_extra_names_are_ignored_and_keywords_win(self, db):
        result = db.prepare(LIMITED).execute({"x": 2, "unused": object()}, x=1, n=1)
        assert [row["g"] for row in result.rows] == [1]

    def test_the_callers_dict_is_neither_kept_nor_changed(self, db):
        parameters = {"x": 1, "n": 2}
        session = db.session()
        future = session.submit(LIMITED, parameters)
        parameters["n"] = 4  # reused for the next submit before the gather
        other = session.submit(LIMITED, parameters)
        first, second = session.gather(future, other)
        assert (len(first.rows), len(second.rows)) == (2, 4)
        assert parameters == {"x": 1, "n": 4}


class TestTheBoundHolds:
    def test_primary_index_scan_returns_at_most_the_declared_rows(self, db):
        """Over a primary-index scan the extra rows cost no extra operation,
        so no operation count could ever notice them."""
        query = db.prepare(PAGED)
        assert len(query.execute(x=1).rows) == 5
        with pytest.raises(ExecutionError, match="more than the 5"):
            query.execute(x=1, n=50)

    def test_serving_mode_does_not_complete_an_over_max_query(self, db):
        """Serving mode records a bound violation and lets the request
        finish; a binding that would cause one never starts."""
        db.auditor.mode = "serving"
        query = db.prepare(LIMITED)
        before = db.client.stats.operations
        with pytest.raises(ExecutionError, match="more than the 5"):
            query.execute(x=1, n=20)
        assert db.client.stats.operations == before
        assert db.auditor.violations == 0
