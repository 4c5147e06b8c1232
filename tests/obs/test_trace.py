"""Unit tests for spans and the tracer."""

from __future__ import annotations

from repro.obs.trace import Span, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_tracer(keep: int = 64):
    clock = FakeClock()
    return clock, Tracer(lambda: clock.now, keep=keep)


class TestSpans:
    def test_nesting_and_timing(self):
        clock, tracer = make_tracer()
        root = tracer.start_span("query", "query", sql="SELECT 1")
        clock.advance(1.0)
        child = tracer.start_span("scan", "operator")
        clock.advance(2.0)
        tracer.end_span(child)
        clock.advance(0.5)
        tracer.end_span(root)

        assert root.start == 0.0 and root.end == 3.5
        assert child.start == 1.0 and child.duration == 2.0
        assert root.children == [child]
        assert root.attributes["sql"] == "SELECT 1"
        assert tracer.active is None

    def test_duration_zero_while_open(self):
        _, tracer = make_tracer()
        span = tracer.start_span("open", "query")
        assert span.duration == 0.0

    def test_record_attaches_under_active(self):
        clock, tracer = make_tracer()
        root = tracer.start_span("query", "query")
        tracer.record("get", "rpc", 0.0, 0.001, keys=1)
        tracer.end_span(root)
        assert len(root.children) == 1
        rpc = root.children[0]
        assert rpc.kind == "rpc"
        assert rpc.duration == 0.001
        assert rpc.attributes["keys"] == 1

    def test_record_without_active_becomes_root(self):
        _, tracer = make_tracer()
        tracer.record("get", "rpc", 0.0, 0.1)
        assert tracer.last_root() is not None
        assert tracer.last_root().kind == "rpc"

    def test_end_span_closes_leaked_children(self):
        clock, tracer = make_tracer()
        root = tracer.start_span("query", "query")
        leaked = tracer.start_span("operator", "operator")
        clock.advance(1.0)
        tracer.end_span(root)  # never explicitly ended `leaked`
        assert leaked.end == 1.0
        assert root.end == 1.0
        assert tracer.active is None

    def test_end_span_on_a_closed_span_is_a_no_op(self):
        # A second end_span(child) used to drain the whole stack: the open
        # root got stamped with the wrong end and the next span became a
        # second root.
        clock, tracer = make_tracer()
        root = tracer.start_span("query", "query")
        child = tracer.start_span("operator", "operator")
        clock.advance(1.0)
        tracer.end_span(child)
        clock.advance(1.0)
        tracer.end_span(child)
        assert child.end == 1.0
        assert root.end is None
        assert tracer.active is root
        sibling = tracer.start_span("operator", "operator")
        tracer.end_span(sibling)
        clock.advance(1.0)
        tracer.end_span(root)
        assert root.children == [child, sibling]
        assert root.end == 3.0
        assert list(tracer.roots) == [root]

    def test_logical_reads_expand_into_logical_op_spans(self):
        _, tracer = make_tracer()
        root = tracer.start_span("query", "query")
        rpc = tracer.record("multi_get", "rpc", 0.0, 0.5)
        assert rpc.logical_reads is None and not rpc.expanded_children()
        # The read the RPC was issued for, then one that joined its reply.
        rpc.logical_reads = [b"k1", (b"k2", 0.1, 0.5)]
        tracer.end_span(root)
        assert not rpc.children
        first, second = rpc.expanded_children()
        assert (first.name, first.kind, first.start, first.end) == (
            "get", "logical-op", 0.0, 0.5
        )
        assert first.attributes == {"key": b"k1", "coalesced": False}
        assert list(first.attributes) == ["key", "coalesced"]
        assert second.attributes == {"key": b"k2", "coalesced": True}
        assert (second.start, second.end) == (0.1, 0.5)
        assert [s.kind for s in root.walk()] == [
            "query", "rpc", "logical-op", "logical-op"
        ]
        assert len(root.find("logical-op")) == 2

    def test_walk_and_find(self):
        _, tracer = make_tracer()
        root = tracer.start_span("query", "query")
        a = tracer.start_span("a", "operator")
        tracer.record("get", "rpc", 0.0, 0.0)
        tracer.end_span(a)
        b = tracer.start_span("b", "operator")
        tracer.end_span(b)
        tracer.end_span(root)

        assert [s.name for s in root.walk()] == ["query", "a", "get", "b"]
        assert [s.name for s in root.find("operator")] == ["a", "b"]
        assert root.find("rpc")[0].name == "get"
        assert root.find("missing") == []


class TestRootRetention:
    def test_bounded_roots(self):
        _, tracer = make_tracer(keep=3)
        for i in range(10):
            span = tracer.start_span(f"q{i}", "query")
            tracer.end_span(span)
        assert len(tracer.roots) == 3
        assert [s.name for s in tracer.roots] == ["q7", "q8", "q9"]
        assert tracer.last_root().name == "q9"

    def test_clear(self):
        _, tracer = make_tracer()
        tracer.start_span("open", "query")
        tracer.clear()
        assert tracer.active is None
        assert tracer.last_root() is None
