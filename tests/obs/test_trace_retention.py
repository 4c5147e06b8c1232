"""What a forensics run keeps does not grow with run length.

A serving run with forensics traces every query on every application
server, offers each finished root to the flight recorder, and keeps only
what the recorder retains: after the run, the live ``Span`` objects are
exactly the spans reachable through ``children`` from the recorder's
traces, whether the run lasted five simulated seconds or twenty.  The three
edges of the tracer's ``keep`` (a retaining view, a view that retains
nothing, ``EXPLAIN ANALYZE`` on the latter) are pinned beside it.
"""

from __future__ import annotations

import gc
from typing import List, Optional, Tuple

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.obs.flightrec import ForensicsConfig
from repro.obs.trace import Span
from repro.serving.simulator import ServingConfig, ServingSimulation
from repro.workloads import TpcwWorkload, WorkloadScale
from repro.workloads.tpcw.queries import PRODUCT_DETAIL_WI

SEED = 13
CLIENTS = 10


def loaded_tpcw() -> Tuple[PiqlDatabase, TpcwWorkload]:
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=SEED))
    workload = TpcwWorkload()
    workload.setup(
        db,
        WorkloadScale(
            storage_nodes=4, users_per_node=30, items_total=400, seed=SEED
        ),
    )
    return db, workload


def serve(seconds: float, tracing_keep: Optional[int] = None, **observers):
    """A closed-loop forensics run: ``(simulation, report)``.  With
    ``tracing_keep`` the caller turns tracing on first, keeping that many
    roots per view."""
    db, workload = loaded_tpcw()
    if tracing_keep is not None:
        db.enable_tracing(keep=tracing_keep)
    simulation = ServingSimulation(
        db,
        workload,
        ServingConfig(
            mode="closed",
            clients=CLIENTS,
            think_time_seconds=0.5,
            duration_seconds=seconds,
            forensics=ForensicsConfig(),
            seed=SEED,
            **observers,
        ),
    )
    return simulation, simulation.run()


def live_spans() -> List[Span]:
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) is Span]


def reachable(roots) -> List[Span]:
    found: List[Span] = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(span.children)
    return found


@pytest.mark.parametrize("seconds", [5.0, 20.0])
def test_live_spans_are_what_the_recorder_retains(seconds):
    # Spans other tests left alive are held here, so their ids stay taken
    # and only the run's own spans are counted below.
    before = live_spans()
    ids_before = {id(span) for span in before}
    _, report = serve(seconds)
    recorder = report.forensics.recorder
    assert recorder.seen == report.audited > 0
    retained = reachable(trace.span for trace in recorder.traces)
    assert retained
    new = [span for span in live_spans() if id(span) not in ids_before]
    assert len(new) == len(retained)
    assert {id(span) for span in new} == {id(span) for span in retained}


def test_fleet_dropped_roots_are_reported():
    """A caller's ``keep`` reaches every app-server view, and forensics
    reports what those views evicted, not the parent's empty count."""
    simulation, report = serve(2.0, tracing_keep=2, telemetry_enabled=True)
    views = [server.db.tracer for server in simulation.driver.servers]
    assert all(tracer.roots.maxlen == 2 for tracer in views)
    dropped = sum(tracer.dropped_roots for tracer in views)
    assert simulation.db.tracer.dropped_roots == 0
    assert dropped > 0
    assert report.forensics.dropped_roots() == dropped
    store = report.telemetry.store
    assert store.latest_value("obs.trace.dropped_roots") == dropped


class TestKeepEdges:
    def test_a_retaining_view_keeps_its_last_roots(self):
        db, _ = loaded_tpcw()
        view = db.new_client()
        assert view.tracer is None
        db.enable_tracing(keep=3)
        view = db.new_client()
        for item in range(5):
            view.execute(PRODUCT_DETAIL_WI, item_id=item + 1)
        assert len(view.tracer.roots) == 3
        assert view.tracer.dropped_roots == 2

    def test_a_keep_zero_view_holds_no_finished_root(self):
        db, _ = loaded_tpcw()
        db.enable_tracing(keep=0)
        view = db.new_client()
        for item in range(5):
            view.execute(PRODUCT_DETAIL_WI, item_id=item + 1)
        assert list(view.tracer.roots) == []
        assert view.tracer.last_root() is None
        assert view.tracer.dropped_roots == 0

    def test_explain_analyze_on_a_keep_zero_view(self):
        db, _ = loaded_tpcw()
        tracer = db.enable_tracing(keep=0)
        text = db.explain_analyze(PRODUCT_DETAIL_WI, {"item_id": 1})
        assert any("ops=" in line for line in text.splitlines())
        assert db.tracer is tracer
        assert list(tracer.roots) == []
