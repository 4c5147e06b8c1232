"""Golden exports: observation must keep saying the same things.

How spans are held in memory is free to change; what a reader is handed is
not.  Two artifacts of a fixed-seed TPC-W replay are pinned byte for byte
under ``fixtures/``:

* ``tpcw_interaction_trace.json`` — ``span_to_dict`` of every root of one
  pipelined web interaction whose gathers coalesce point reads, so the
  trace holds ``logical-op`` spans of both kinds (the read that issued an
  RPC, and a read that joined one);
* ``flight_recorder_v1.json`` — the ``flight-recorder/v1`` payload, spans
  included, of a recorder fed by the same replay: retention reasons, the
  per-trace ``approx_bytes`` and ``span_count``, critical-path breakdowns,
  windows and exemplars.

An ``operator`` span's ``node_id`` is the ``id()`` of its plan node, which
differs from process to process; the exports are compared with those ids
renumbered in order of first appearance.

Regenerate (only when a change is *meant* to move an export)::

    PYTHONPATH=src python tests/obs/test_golden_exports.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.obs.criticalpath import CriticalPathAggregator
from repro.obs.export import span_to_dict
from repro.obs.flightrec import FlightRecorder, ForensicsConfig
from repro.obs.trace import Span
from repro.workloads import TpcwWorkload, WorkloadScale

FIXTURES = Path(__file__).with_name("fixtures")
TRACE_PATH = FIXTURES / "tpcw_interaction_trace.json"
RECORDER_PATH = FIXTURES / "flight_recorder_v1.json"
SEED = 11
INTERACTIONS = 30


def _coalescing_kinds(roots: List[Span]) -> set:
    return {
        span.attributes["coalesced"]
        for root in roots
        for span in root.walk()
        if span.kind == "logical-op"
    }


def replay() -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """The two exports of one fixed-seed pipelined TPC-W replay."""
    db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=4, seed=SEED))
    workload = TpcwWorkload()
    workload.setup(
        db,
        WorkloadScale(
            storage_nodes=2, users_per_node=20, items_total=200, seed=SEED
        ),
    )
    db.reset_measurements()
    tracer = db.enable_tracing()
    recorder = FlightRecorder(
        ForensicsConfig(reservoir_interval=30),
        aggregator=CriticalPathAggregator(),
    )
    recorder.note_window(0.030, 0.036, "scripted-fault")
    db.auditor.recorder = recorder
    rng = random.Random(SEED)
    interaction: List[Dict[str, object]] = []
    for _ in range(INTERACTIONS):
        plan = workload.interaction_plan(db, rng)
        tracer.clear()
        workload.run_plan(db, plan, session=db.session())
        roots = list(tracer.roots)
        if not interaction and _coalescing_kinds(roots) == {True, False}:
            interaction = [span_to_dict(root) for root in roots]
    db.auditor.recorder = None
    return interaction, recorder.payload(include_spans=True)


def _renumber_plan_nodes(node: object, seen: Dict[int, int]) -> None:
    if isinstance(node, list):
        for item in node:
            _renumber_plan_nodes(item, seen)
    elif isinstance(node, dict):
        if node.get("kind") == "operator":
            attributes = node["attributes"]
            attributes["node_id"] = seen.setdefault(
                attributes["node_id"], len(seen)
            )
        for value in node.values():
            _renumber_plan_nodes(value, seen)


def _render(document: object) -> str:
    _renumber_plan_nodes(document, {})
    return json.dumps(document, indent=1) + "\n"


@pytest.fixture(scope="module")
def replayed():
    return replay()


def test_interaction_trace_export_is_byte_identical(replayed):
    interaction, _ = replayed
    assert interaction, "no interaction coalesced a point read"
    assert _render(interaction) == TRACE_PATH.read_text()


def test_flight_recorder_payload_is_byte_identical(replayed):
    _, payload = replayed
    expected = json.loads(RECORDER_PATH.read_text())
    assert [trace["approx_bytes"] for trace in payload["traces"]] == [
        trace["approx_bytes"] for trace in expected["traces"]
    ]
    assert payload["memory_bytes"] == expected["memory_bytes"]
    assert _render(payload) == RECORDER_PATH.read_text()


def test_fixture_covers_both_kinds_of_logical_read_and_a_window():
    def spans(node):
        yield node
        for child in node["children"]:
            yield from spans(child)

    flags = {
        span["attributes"]["coalesced"]
        for root in json.loads(TRACE_PATH.read_text())
        for span in spans(root)
        if span["kind"] == "logical-op"
    }
    assert flags == {True, False}
    recorded = json.loads(RECORDER_PATH.read_text())
    reasons = {r for trace in recorded["traces"] for r in trace["reasons"]}
    assert {"baseline", "window:scripted-fault"} <= reasons


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    trace, recorded = replay()
    assert trace, "no interaction coalesced a point read"
    TRACE_PATH.write_text(_render(trace))
    RECORDER_PATH.write_text(_render(recorded))
    print(f"wrote {TRACE_PATH} and {RECORDER_PATH}")
