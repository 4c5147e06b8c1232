"""Golden exports: observation must keep saying the same things.

How spans are held in memory is free to change; what a reader is handed is
not.  Two artifacts of a fixed-seed TPC-W replay are pinned byte for byte
under ``fixtures/``:

* ``tpcw_interaction_trace.json`` — :func:`span_to_dict` of every root of
  one pipelined web interaction whose gathers coalesce point reads, so the
  trace holds ``logical-op`` spans of both kinds (the read that issued an
  RPC, and a read that joined one);
* ``forensics_replay.json`` — what a flight recorder fed by the same replay
  decided: per retained trace its id, class, latency, retention time,
  reasons, pin, ``approx_bytes`` and critical-path segments; the recorder's
  ``seen`` / ``dropped`` / ``memory_bytes``; and each query class's
  time-weighted mean shares.

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
from repro.obs.export import _json_safe
from repro.obs.flightrec import FlightRecorder, ForensicsConfig
from repro.obs.trace import Span, Tracer
from repro.workloads import TpcwWorkload, WorkloadScale

FIXTURES = Path(__file__).with_name("fixtures")
TRACE_PATH = FIXTURES / "tpcw_interaction_trace.json"
FORENSICS_PATH = FIXTURES / "forensics_replay.json"
SEED = 11
INTERACTIONS = 30


def span_to_dict(span: Span) -> Dict[str, object]:
    """One span (and its subtree) as JSON-serialisable nested dicts."""
    return {
        "name": span.name,
        "kind": span.kind,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": {
            key: _json_safe(value) for key, value in span.attributes.items()
        },
        "children": [
            span_to_dict(child) for child in span.expanded_children()
        ],
    }


def _coalescing_kinds(roots: List[Span]) -> set:
    return {
        span.attributes["coalesced"]
        for root in roots
        for span in root.walk()
        if span.kind == "logical-op"
    }


def forensics_document(
    recorder: FlightRecorder, aggregator: CriticalPathAggregator
) -> Dict[str, object]:
    """What the recorder retained and why, and the per-class mean shares."""
    return {
        "seen": recorder.seen,
        "dropped": recorder.dropped,
        "memory_bytes": recorder.memory_bytes,
        "traces": [
            {
                "trace_id": trace.trace_id,
                "query_class": trace.query_class,
                "latency_seconds": trace.latency_seconds,
                "retained_at": trace.retained_at,
                "reasons": list(trace.reasons),
                "pinned": trace.pinned,
                "approx_bytes": trace.approx_bytes,
                "segments": dict(trace.breakdown.segments),
            }
            for trace in recorder.traces
        ],
        "profiles": [
            {
                "query_class": profile.query_class,
                "traces": profile.traces,
                "mean_shares": dict(profile.mean_shares),
            }
            for profile in aggregator.profiles()
        ],
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
    aggregator = CriticalPathAggregator()
    recorder = FlightRecorder(
        ForensicsConfig(reservoir_interval=30), aggregator=aggregator
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
    return interaction, forensics_document(recorder, aggregator)


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


def test_forensics_decisions_are_byte_identical(replayed):
    _, document = replayed
    expected = json.loads(FORENSICS_PATH.read_text())
    assert [
        (trace["trace_id"], trace["reasons"], trace["approx_bytes"])
        for trace in document["traces"]
    ] == [
        (trace["trace_id"], trace["reasons"], trace["approx_bytes"])
        for trace in expected["traces"]
    ]
    assert document["memory_bytes"] == expected["memory_bytes"]
    assert _render(document) == FORENSICS_PATH.read_text()


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
    recorded = json.loads(FORENSICS_PATH.read_text())
    reasons = {r for trace in recorded["traces"] for r in trace["reasons"]}
    assert {"baseline", "window:scripted-fault"} <= reasons
    for profile in recorded["profiles"]:
        assert sum(profile["mean_shares"].values()) == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0


def sample_trace() -> Span:
    clock = FakeClock()
    tracer = Tracer(lambda: clock.now)
    root = tracer.start_span("query", "query", sql="SELECT 1")
    clock.now = 0.001
    tracer.record("get", "rpc", 0.0005, 0.001, keys=1, payload=b"\x00bytes")
    clock.now = 0.002
    tracer.end_span(root)
    return root


class TestSpanToDict:
    def test_structure(self):
        data = span_to_dict(sample_trace())
        assert data["name"] == "query"
        assert data["kind"] == "query"
        assert data["start"] == 0.0
        assert data["end"] == 0.002
        assert data["duration"] == 0.002
        assert data["attributes"] == {"sql": "SELECT 1"}
        assert len(data["children"]) == 1
        assert data["children"][0]["name"] == "get"

    def test_bytes_attributes_become_json_safe(self):
        text = json.dumps(span_to_dict(sample_trace()))
        parsed = json.loads(text)  # must not raise on the bytes payload
        child = parsed["children"][0]
        assert isinstance(child["attributes"]["payload"], str)


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    trace, recorded = replay()
    assert trace, "no interaction coalesced a point read"
    TRACE_PATH.write_text(_render(trace))
    FORENSICS_PATH.write_text(_render(recorded))
    print(f"wrote {TRACE_PATH} and {FORENSICS_PATH}")
