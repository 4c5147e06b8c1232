"""Tests for critical-path analysis (exclusive segment attribution)."""

from __future__ import annotations

import pytest

from repro.obs.criticalpath import (
    MAX_CLASSES,
    SEGMENT_CLASSES,
    CriticalPathAggregator,
    analyze_trace,
    query_class_of,
)
from repro.obs.trace import Span


def span(name, kind, start, end, parent=None, **attributes):
    node = Span(name, kind, start, attributes=dict(attributes))
    node.end = end
    if parent is not None:
        parent.children.append(node)
    return node


def assert_exact_partition(breakdown):
    """Segment seconds sum to the root duration, shares to 1.0."""
    assert sum(breakdown.segments.values()) == pytest.approx(
        breakdown.duration_seconds, abs=1e-9
    )
    assert sum(breakdown.shares.values()) == pytest.approx(1.0, abs=1e-6)


class TestLeafKinds:
    def test_zero_storage_spans_is_all_client_compute(self):
        root = span("query", "query", 0.0, 5.0, sql="SELECT 1")
        span("operator", "operator", 1.0, 2.0, parent=root)
        breakdown = analyze_trace(root)
        assert breakdown.segments["client_compute"] == pytest.approx(5.0)
        assert breakdown.shares["client_compute"] == pytest.approx(1.0)
        assert_exact_partition(breakdown)

    def test_zero_duration_trace_shares_are_client_compute(self):
        root = span("query", "query", 3.0, 3.0)
        breakdown = analyze_trace(root)
        assert breakdown.shares["client_compute"] == 1.0
        assert sum(breakdown.shares.values()) == pytest.approx(1.0)

    def test_open_span_is_rejected(self):
        root = Span("query", "query", 0.0)
        with pytest.raises(ValueError):
            analyze_trace(root)

    def test_rpc_queue_wait_is_carved_out(self):
        root = span("query", "query", 0.0, 1.0)
        span("get", "rpc", 0.0, 1.0, parent=root, queue_wait_seconds=0.25)
        breakdown = analyze_trace(root)
        assert breakdown.segments["queue_wait"] == pytest.approx(0.25)
        assert breakdown.segments["rpc_service"] == pytest.approx(0.75)
        assert_exact_partition(breakdown)

    def test_rpc_timeout_and_coalesced_charge_storage(self):
        root = span("query", "query", 0.0, 4.0)
        span("deadline", "rpc-timeout", 0.0, 1.0, parent=root)
        span("wait", "coalesced", 1.0, 3.0, parent=root)
        breakdown = analyze_trace(root)
        assert breakdown.segments["rpc_service"] == pytest.approx(3.0)
        assert breakdown.segments["client_compute"] == pytest.approx(1.0)
        assert_exact_partition(breakdown)

    def test_view_maintenance_subtree_charged_whole(self):
        root = span("put", "write", 0.0, 2.0)
        view = span("views", "view-maintenance", 0.5, 1.5, parent=root)
        # Inner RPCs are *caused by* the view; they must not be re-split.
        span("delta", "rpc", 0.5, 1.5, parent=view, queue_wait_seconds=0.4)
        breakdown = analyze_trace(root)
        assert breakdown.segments["view_maintenance"] == pytest.approx(1.0)
        assert breakdown.segments["queue_wait"] == 0.0
        assert_exact_partition(breakdown)


class TestOverlapResolution:
    def test_gather_switches_siblings_mid_window(self):
        # Two gather branches on scratch clocks: A [0, 4], B [2, 8].  The
        # dominant child (furthest end) owns each stretch, so the critical
        # path runs A for [0, 2] then switches to B for [2, 8].
        root = span("query", "query", 0.0, 10.0)
        gather = span("gather", "gather", 0.0, 8.0, parent=root)
        span("branch-a", "rpc", 0.0, 4.0, parent=gather)
        span("branch-b", "rpc", 2.0, 8.0, parent=gather)
        breakdown = analyze_trace(root)
        # A contributes only its dominant prefix, scaled: 2s of a 4s RPC.
        # B contributes its whole 6s.  The root residual [8, 10] is client.
        assert breakdown.segments["rpc_service"] == pytest.approx(8.0)
        assert breakdown.segments["client_compute"] == pytest.approx(2.0)
        assert_exact_partition(breakdown)

    def test_partial_rpc_window_scales_attribute_split(self):
        # A's [2, 4] tail is overlapped by the longer B, so A keeps only
        # half its window — and therefore half its queue-wait carve-out.
        root = span("query", "query", 0.0, 6.0)
        span("a", "rpc", 0.0, 4.0, parent=root, queue_wait_seconds=2.0)
        span("b", "rpc", 2.0, 6.0, parent=root)
        breakdown = analyze_trace(root)
        assert breakdown.segments["queue_wait"] == pytest.approx(1.0)
        assert breakdown.segments["rpc_service"] == pytest.approx(5.0)
        assert_exact_partition(breakdown)

    def test_retry_span_overlapping_an_rpc(self):
        # A resilience backoff [2, 4] overlaps an RPC [3, 9]; the RPC
        # extends further so it wins the contested [3, 4] stretch.
        root = span("query", "query", 0.0, 10.0)
        span("backoff", "resilience", 2.0, 4.0, parent=root)
        span("read", "rpc", 3.0, 9.0, parent=root, queue_wait_seconds=2.0)
        breakdown = analyze_trace(root)
        assert breakdown.segments["retry_backoff"] == pytest.approx(1.0)
        # The whole 6s RPC is on the path: 2s queued, 4s served.
        assert breakdown.segments["queue_wait"] == pytest.approx(2.0)
        assert breakdown.segments["rpc_service"] == pytest.approx(4.0)
        assert breakdown.segments["client_compute"] == pytest.approx(3.0)
        assert_exact_partition(breakdown)

    def test_coalesced_point_reads_exclude_logical_children(self):
        # One RPC span carrying many per-key logical reads is still one
        # RPC's worth of wall time: the accounting describes work, not
        # time, and must not inflate (or re-partition) the span.
        root = span("query", "query", 0.0, 1.0)
        rpc = span(
            "multi_get", "rpc", 0.0, 1.0, parent=root,
            queue_wait_seconds=0.2,
        )
        rpc.logical_reads = [b"key-%d" % index for index in range(40)]
        breakdown = analyze_trace(root)
        assert breakdown.segments["queue_wait"] == pytest.approx(0.2)
        assert breakdown.segments["rpc_service"] == pytest.approx(0.8)
        assert_exact_partition(breakdown)

    def test_sequential_children_with_gaps(self):
        # The disjoint fast path: pipeline of operators, gaps are client.
        root = span("query", "query", 0.0, 10.0)
        span("scan", "rpc", 1.0, 3.0, parent=root)
        span("deref", "rpc", 4.0, 7.0, parent=root)
        breakdown = analyze_trace(root)
        assert breakdown.segments["rpc_service"] == pytest.approx(5.0)
        assert breakdown.segments["client_compute"] == pytest.approx(5.0)
        assert_exact_partition(breakdown)

    def test_deep_mixed_tree_is_an_exact_partition(self):
        root = span("query", "query", 0.0, 20.0, sql="SELECT  *  FROM t")
        gather = span("gather", "gather", 1.0, 15.0, parent=root)
        a = span("branch-a", "branch", 1.0, 9.0, parent=gather)
        span("read", "rpc", 1.0, 5.0, parent=a, queue_wait_seconds=1.0)
        span("backoff", "resilience", 5.0, 6.0, parent=a)
        span("retry", "rpc", 6.0, 9.0, parent=a)
        b = span("branch-b", "branch", 1.0, 15.0, parent=gather)
        span("long", "rpc", 2.0, 14.0, parent=b, queue_wait_seconds=5.0)
        span("sibling", "rpc", 3.0, 10.0, parent=b)
        span("deadline", "rpc-timeout", 15.0, 17.0, parent=root)
        breakdown = analyze_trace(root)
        assert_exact_partition(breakdown)
        assert breakdown.query_class == "SELECT * FROM t"

    def test_clamped_child_extending_past_parent(self):
        # A scratch-clock child may outlive the window it is swept under;
        # the partition must still be exact.
        root = span("query", "query", 0.0, 4.0)
        span("read", "rpc", 1.0, 6.0, parent=root)
        breakdown = analyze_trace(root)
        assert breakdown.segments["rpc_service"] == pytest.approx(3.0)
        assert breakdown.segments["client_compute"] == pytest.approx(1.0)
        assert_exact_partition(breakdown)


class TestQueryClass:
    def test_sql_attribute_is_whitespace_normalised(self):
        root = span("query", "query", 0.0, 1.0, sql="SELECT *\n  FROM   t")
        assert query_class_of(root) == "SELECT * FROM t"

    def test_falls_back_to_span_name(self):
        root = span("put users", "write", 0.0, 1.0)
        assert query_class_of(root) == "put users"


class TestAggregator:
    def _breakdown(self, sql, start, end, rpc_end=None):
        root = span("query", "query", start, end, sql=sql)
        span("read", "rpc", start, rpc_end if rpc_end is not None else end,
             parent=root)
        return analyze_trace(root)

    def test_mean_shares_are_time_weighted(self):
        aggregator = CriticalPathAggregator()
        aggregator.observe(self._breakdown("Q", 0.0, 1.0))
        aggregator.observe(self._breakdown("Q", 0.0, 3.0, rpc_end=0.0))
        (profile,) = aggregator.profiles()
        assert profile.query_class == "Q"
        assert profile.traces == 2
        # 1s rpc + 3s client over 4s total.
        assert profile.mean_shares["rpc_service"] == pytest.approx(0.25)
        assert profile.mean_shares["client_compute"] == pytest.approx(0.75)
        assert sum(profile.mean_shares.values()) == pytest.approx(1.0)

    def test_class_cap_counts_dropped(self):
        aggregator = CriticalPathAggregator()
        names = [f"Q{index:03d}" for index in range(MAX_CLASSES + 1)]
        for name in names:
            aggregator.observe(self._breakdown(name, 0.0, 1.0))
        assert aggregator.observed == MAX_CLASSES + 1
        assert aggregator.dropped_classes == 1
        assert [p.query_class for p in aggregator.profiles()] == names[:-1]

    def test_all_segment_classes_always_present(self):
        breakdown = self._breakdown("Q", 0.0, 1.0)
        assert set(breakdown.segments) == set(SEGMENT_CLASSES)
        assert set(breakdown.shares) == set(SEGMENT_CLASSES)
