#!/usr/bin/env python
"""Asynchronous sessions: futures, streaming cursors, and query pipelining.

The classic client API is blocking — ``db.execute`` charges each query's
simulated latency to the application server's clock before returning, so an
interaction that renders a page from several independent queries pays their
latencies in sequence.  A :class:`~repro.engine.session.Session` overlaps
them:

1. ``session.submit(...)`` queues a query and returns a ``QueryFuture``
   without charging anything;
2. ``session.gather(*futures)`` resolves them *concurrently* — every branch
   starts at the same simulated instant and the session clock advances by
   the slowest branch only, with duplicate point reads across branches
   coalesced into one fetch, and a range one branch scans again served
   from the other branch's reply;
3. results stream back as ``ResultCursor`` objects — pages of a PAGINATE
   query are fetched lazily as you iterate, ``fetch_all()`` materialises.

This walkthrough renders the SCADr home page (Section 8.1.2) both ways and
shows the pipelined render costing the max of its four queries instead of
their sum, in one RPC fewer: ``thoughtstream`` scans the same subscriptions
range ``users_followed`` fetched, so it waits for that reply instead of
sending its own.  A shared reply saves work, not necessarily this page's
time: the waiting branch is ready no sooner than the fetch it shares.

Run with ``PYTHONPATH=src python examples/async_session.py``.
"""

from __future__ import annotations

import random

from repro import ClusterConfig, PiqlDatabase
from repro.workloads import ScadrWorkload, WorkloadScale

SEED = 7


def fresh_scadr():
    """A small SCADr database (fresh per arm so both replay the same noise)."""
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=SEED))
    workload = ScadrWorkload(
        max_subscriptions=10, subscriptions_per_user=5, thoughts_per_user=10
    )
    workload.setup(db, WorkloadScale(storage_nodes=2, users_per_node=40, seed=SEED))
    db.reset_measurements()
    return db, workload


def main() -> None:
    # --- one home-page render, the blocking way ---------------------------
    db, workload = fresh_scadr()
    uname = workload.usernames[3]
    queries = {name: workload.query_sql(name) for name in workload.query_names()}

    serial_latencies = {}
    for name, sql in queries.items():
        result = db.execute(sql, uname=uname)
        serial_latencies[name] = result.latency_seconds
    serial_total = db.client.clock.now
    serial_rpcs = db.client.stats.rpcs

    print(f"SCADr home page for {uname!r}, rendered serially:")
    for name, latency in serial_latencies.items():
        print(f"  {name:<16} {latency * 1000:7.2f} ms")
    print(
        f"  {'total':<16} {serial_total * 1000:7.2f} ms  (latencies add; "
        f"{serial_rpcs} RPCs)\n"
    )

    # --- the same render through a session --------------------------------
    db, workload = fresh_scadr()
    session = db.session()
    futures = [
        session.submit(sql, uname=uname, label=name)
        for name, sql in queries.items()
    ]
    assert not any(future.done() for future in futures), "submit is non-blocking"
    session.gather(*futures)
    pipelined_total = session.now

    print("the same page through session.submit / session.gather:")
    for future in futures:
        print(f"  {future.label:<16} {future.latency_seconds * 1000:7.2f} ms")
    print(
        f"  {'total':<16} {pipelined_total * 1000:7.2f} ms  "
        f"(= slowest branch; {serial_total / pipelined_total:.2f}x faster; "
        f"{db.client.stats.rpcs} RPCs)\n"
    )

    # --- the interaction plan does this for every page --------------------
    db, workload = fresh_scadr()
    rng = random.Random(SEED)
    plan = workload.interaction_plan(db, rng)
    result = workload.run_plan(db, plan, session=db.session())
    print(
        f"workload.run_plan(..., session=...): {result.name!r} rendered in "
        f"{result.latency_ms:.2f} ms, {result.operations} k/v operations "
        f"across {len(result.query_latencies)} parallel steps\n"
    )

    # --- streaming cursors -------------------------------------------------
    db, workload = fresh_scadr()
    session = db.session()
    cursor = session.execute(
        "SELECT * FROM thoughts WHERE owner = <uname> "
        "ORDER BY timestamp DESC PAGINATE 3",
        uname=uname,
    )
    print("streaming a PAGINATE query through a ResultCursor:")
    rows_seen = 0
    for row in cursor:  # pages are fetched lazily as iteration proceeds
        rows_seen += 1
    print(
        f"  iterated {rows_seen} rows over {cursor.pages_fetched} lazily "
        f"fetched pages ({cursor.operations} operations, "
        f"{cursor.latency_ms:.2f} ms total)"
    )
    print(f"  fetch_all() compatibility: {len(cursor.fetch_all())} rows")


if __name__ == "__main__":
    main()
