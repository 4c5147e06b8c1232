"""The record manager's one write body against a dict model.

Every DML call — insert, upsert, update, delete — runs the same body
(``RecordManager._write``): the new index entries, the records, the stale
entries, the view deltas; an insert or update then counts each
``CARDINALITY LIMIT`` group it adds a row to and, over the limit, runs its
changes back through the body.  Generated histories of one-row steps and
2–4-row batches drive a table with a secondary index, a ``COUNT(*)`` view
and a limit on a non-key column.  A dict says what each step leaves:

* a step either applies in full or raises, and the store holds exactly the
  rows the dict holds (a plain insert that meets an existing key keeps the
  rows before it, as a batch is not atomic);
* after every step no group exceeds its limit, each index namespace holds
  exactly the entries recomputed from the stored rows, and the view equals
  ``recompute_view``.

The histories reach what no workload writes: ``update``, the view's
``merge_remove`` on a row that changes group, and ``_undo_entries`` behind
a duplicate key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, PiqlDatabase
from repro.errors import CardinalityViolationError, UniquenessViolationError
from repro.schema.ddl import IndexColumn, IndexDefinition
from repro.storage.rows import index_entries
from repro.views.maintenance import recompute_view, visible_row

LIMIT = 2
DDL = (
    "CREATE TABLE people (id INT, town VARCHAR(8), age INT, "
    f"PRIMARY KEY (id), CARDINALITY LIMIT {LIMIT} (town))"
)
VIEW = (
    "CREATE MATERIALIZED VIEW town_counts AS "
    "SELECT town, COUNT(*) AS n FROM people GROUP BY town"
)
IDS = range(6)

Row = Dict[str, object]
Model = Dict[int, Row]

rows = st.builds(
    lambda id_, town, age: {"id": id_, "town": town, "age": age},
    st.sampled_from(IDS), st.sampled_from("abc"), st.integers(1, 3),
)


def batches(elements):
    """One element, or 2–4 with distinct ids."""
    return st.one_of(
        st.lists(elements, min_size=1, max_size=1),
        st.lists(
            elements, min_size=2, max_size=4,
            unique_by=lambda item: item["id"] if isinstance(item, dict) else item,
        ),
    )


steps = st.one_of(
    st.tuples(st.just("insert"), batches(rows)),
    st.tuples(st.just("upsert"), batches(rows)),
    st.tuples(st.just("update"), st.lists(rows, min_size=1, max_size=1)),
    st.tuples(st.just("delete"), batches(st.sampled_from(IDS))),
)


def expect(
    model: Model, verb: str, items: List
) -> Tuple[Model, Optional[Type[Exception]]]:
    """The rows one step leaves, and the error it raises."""
    if verb == "delete":
        return {k: v for k, v in model.items() if k not in items}, None
    error: Optional[Type[Exception]] = None
    written = items
    if verb == "insert":
        fresh = [row["id"] not in model for row in items]
        if not all(fresh):
            written = items[:fresh.index(False)]
            error = UniquenessViolationError
    after = dict(model)
    after.update({row["id"]: row for row in written})
    grown = {
        row["town"] for row in written
        if row["id"] not in model or model[row["id"]]["town"] != row["town"]
    }
    towns = [row["town"] for row in after.values()]
    if any(towns.count(town) > LIMIT for town in grown):
        return model, CardinalityViolationError
    return after, error


def new_database() -> PiqlDatabase:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=7))
    db.execute_ddl(DDL)
    db.create_index(IndexDefinition(
        "idx_people_age", "people", (IndexColumn("age"), IndexColumn("id")),
    ))
    db.create_materialized_view(VIEW)
    return db


def check(db: PiqlDatabase, model: Model) -> None:
    stored = {row["id"]: row for row in db.records.scan("people")}
    assert stored == model
    towns = [row["town"] for row in stored.values()]
    assert all(towns.count(town) <= LIMIT for town in towns)
    table = db.catalog.table("people")
    indexes = db.catalog.indexes_for_table("people")
    assert len(indexes) == 2  # the age index and the limit's town index
    for index in indexes:
        assert sorted(db.cluster.iter_namespace(index.namespace)) == sorted(
            entry for row in stored.values()
            for entry in index_entries(index, table, row)
        ), index.name
    view = db.catalog.view("town_counts")
    materialized = {
        (state["town"],): visible_row(view, state)
        for state in db.records.scan(view.backing_table.name)
    }
    assert materialized == recompute_view(view, db.catalog, db.cluster)


@settings(max_examples=60, deadline=None)
@given(history=st.lists(steps, max_size=12))
def test_every_step_leaves_what_the_model_says(history):
    db = new_database()
    model: Model = {}
    for verb, items in history:
        model, error = expect(model, verb, items)
        try:
            if verb == "delete":
                db.delete_many("people", [[id_] for id_ in items])
            elif verb == "update":
                db.update("people", items[0])
            else:
                db.insert_many("people", items, upsert=verb == "upsert")
            raised = None
        except (UniquenessViolationError, CardinalityViolationError) as exc:
            raised = type(exc)
        assert raised is error, (verb, items)
        check(db, model)
