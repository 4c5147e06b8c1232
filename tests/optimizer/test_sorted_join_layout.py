"""Sorted index joins: the index layout the executor relies on, and the
paper's cardinality-bounded join.

The batched executor orders a sorted join's entries by the bytes of the sort
columns in each entry key, starting where the join prefix ends
(``execution/operators.py::_fused_sorted_join``).  That needs the sort
columns right after the prefix, untokenized, in the index the join reads —
which ``optimizer/phase2.py::_build_join`` guarantees by construction.  The
first test checks it over every compiled TPC-W and SCADr plan.

The rest plan and run a join bounded only by a ``CARDINALITY LIMIT`` on the
joined relation (no ORDER BY, no LIMIT): the planner takes the limit as the
per-key fetch hint, the static bound stays at two operations whatever the
data size, and every strategy returns the rows a nested-loop evaluation of
the query returns.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro import ClusterConfig, ExecutionStrategy, PiqlDatabase
from repro.plans import physical as P
from repro.workloads import ScadrWorkload, TpcwWorkload, WorkloadScale
from repro.workloads.scadr.queries import EXTRA_QUERIES

DDL = """
CREATE TABLE users (uname VARCHAR(16), town VARCHAR(16), PRIMARY KEY (uname));
CREATE TABLE subs (
    owner VARCHAR(16), target VARCHAR(16),
    PRIMARY KEY (owner, target),
    CARDINALITY LIMIT 5 (owner)
)
"""
BOUNDED_JOIN = (
    "SELECT * FROM users u JOIN subs s "
    "WHERE s.owner = u.uname AND u.uname = <x>"
)


def sorted_joins(plan: P.PhysicalOperator) -> List[P.PhysicalSortedIndexJoin]:
    return [
        op for op in P.walk(plan) if isinstance(op, P.PhysicalSortedIndexJoin)
    ]


def sort_columns_follow_prefix(op: P.PhysicalSortedIndexJoin, catalog) -> bool:
    start = len(op.prefix)
    names = [name for name, _ in op.sort_keys]
    if op.index.primary:
        primary_key = list(catalog.table(op.table).primary_key)
        return primary_key[start:start + len(names)] == names
    columns = op.index.definition.columns[start:start + len(names)]
    return [column.name for column in columns] == names and not any(
        column.tokenized for column in columns
    )


def bounded_join_database(users: int):
    """Users with zero to five subscriptions each; returns the database and
    the loaded rows."""
    rng = random.Random(users)
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=3, seed=12))
    db.execute_ddl(DDL)
    names = [f"user{index:03d}" for index in range(users)]
    user_rows = [{"uname": name, "town": rng.choice("abc")} for name in names]
    sub_rows = [
        {"owner": name, "target": target}
        for name in names
        for target in sorted(rng.sample(names, rng.randrange(6)))
    ]
    db.bulk_load("users", user_rows)
    db.bulk_load("subs", sub_rows)
    return db, user_rows, sub_rows


def nested_loop(user_rows, sub_rows, x) -> List[Dict[str, object]]:
    """The query evaluated by definition: every pair the predicates keep."""
    return [
        {**user, **sub}
        for user in user_rows
        if user["uname"] == x
        for sub in sub_rows
        if sub["owner"] == user["uname"]
    ]


def test_every_sorted_join_reads_its_sort_columns_after_the_prefix():
    plans = []
    for workload, seed in (
        (ScadrWorkload(materialized_views=True), 1),
        (TpcwWorkload(), 2),
        (TpcwWorkload(materialized_views=True), 3),
    ):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=seed))
        workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=4,
                                         items_total=40))
        names = list(workload.query_names())
        if isinstance(workload, ScadrWorkload):
            names += sorted(EXTRA_QUERIES)
        plans += [
            (db, db.prepare(workload.query_sql(name)).physical_plan)
            for name in names
        ]
    db, _, _ = bounded_join_database(10)
    plans.append((db, db.prepare(BOUNDED_JOIN).physical_plan))
    joins = [(db, op) for db, plan in plans for op in sorted_joins(plan)]
    assert any(op.sort_keys for _, op in joins)
    assert any(not op.index.primary for _, op in joins)
    for db, op in joins:
        assert sort_columns_follow_prefix(op, db.catalog), op


@pytest.mark.parametrize("users", [40, 160])
def test_cardinality_bounded_join(users):
    db, user_rows, sub_rows = bounded_join_database(users)
    prepared = db.prepare(BOUNDED_JOIN)
    (join,) = sorted_joins(prepared.physical_plan)
    # Bounded by the CARDINALITY LIMIT alone: a primary-key range per
    # user, fetching at most five subscriptions, with nothing to order.
    assert join.index.primary and join.limit_hint == 5
    assert join.sort_keys == () and join.stop_count is None
    assert prepared.operation_bound == 2

    views = {
        strategy: db.new_client(strategy=strategy).prepare(BOUNDED_JOIN)
        for strategy in ExecutionStrategy
    }
    by_fanout = {}
    for user in user_rows:
        fanout = sum(sub["owner"] == user["uname"] for sub in sub_rows)
        by_fanout.setdefault(fanout, user["uname"])
    assert set(by_fanout) == set(range(6))
    for x in [*by_fanout.values(), "nobody"]:
        expected = nested_loop(user_rows, sub_rows, x)
        for strategy, view in views.items():
            result = view.execute(x=x)
            assert result.rows == expected, (strategy, x)
            if strategy is not ExecutionStrategy.LAZY:
                # The user's point read, then (if the user exists) one range.
                assert result.operations == (1 if x == "nobody" else 2)
