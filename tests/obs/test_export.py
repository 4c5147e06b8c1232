"""Tests for trace export (Chrome trace-event format)."""

from __future__ import annotations

import json

from repro.obs.export import trace_to_chrome_events, write_chrome_trace
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0


def sample_trace():
    clock = FakeClock()
    tracer = Tracer(lambda: clock.now)
    root = tracer.start_span("query", "query", sql="SELECT 1")
    clock.now = 0.001
    rpc = tracer.record(
        "get", "rpc", 0.0005, 0.001, keys=1, payload=b"\x00bytes"
    )
    clock.now = 0.002
    tracer.end_span(root)
    return tracer, root, rpc


class TestChromeTrace:
    def test_complete_events(self):
        _, root, _ = sample_trace()
        events = trace_to_chrome_events([root])
        assert len(events) == 2
        query_event = events[0]
        assert query_event["ph"] == "X"
        assert query_event["cat"] == "query"
        assert query_event["ts"] == 0.0
        assert query_event["dur"] == 2000.0  # 0.002 s in microseconds
        assert events[1]["ts"] == 500.0

    def test_one_tid_per_root(self):
        _, root_a, _ = sample_trace()
        _, root_b, _ = sample_trace()
        events = trace_to_chrome_events([root_a, root_b])
        tids = {event["tid"] for event in events}
        assert tids == {0, 1}

    def test_open_spans_are_skipped(self):
        clock = FakeClock()
        tracer = Tracer(lambda: clock.now)
        tracer.start_span("open", "query")  # never ended
        assert trace_to_chrome_events(tracer.roots) == []

    def test_write_chrome_trace(self, tmp_path):
        _, root, _ = sample_trace()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), [root])
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) == 2
