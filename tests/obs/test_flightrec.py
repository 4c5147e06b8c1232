"""Tests for the tail-based flight recorder and the breaker watch."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs import flightrec
from repro.obs.flightrec import (
    BreakerWatch,
    FlightRecorder,
    ForensicsConfig,
    MAX_TRACES,
    MAX_TRANSITIONS,
)
from repro.obs.trace import Span


def finished(start, end, sql="SELECT 1", error=False, name="query"):
    span = Span(name, "query", start, attributes={"sql": sql})
    if error:
        span.attributes["error"] = True
    span.end = end
    return span


class FakeDrift:
    """Duck-typed envelope provider (the drift detector's cache contract)."""

    def __init__(self, p_high_seconds):
        self.p_high_seconds = p_high_seconds

    def _predict_envelope(self, query):
        return SimpleNamespace(p_high_seconds=self.p_high_seconds)


def recorder(**kwargs):
    defaults = dict(reservoir_interval=10_000)
    defaults.update(kwargs)
    return FlightRecorder(ForensicsConfig(**defaults))


class TestRetentionReasons:
    def test_healthy_trace_is_not_retained(self):
        rec = recorder()
        assert rec.observe_query(object(), finished(0.0, 0.01), 0.01) is None
        assert rec.seen == 1
        assert rec.traces == []

    def test_open_span_is_ignored(self):
        rec = recorder()
        assert rec.observe_query(object(), Span("q", "query", 0.0), 0.01) is None
        assert rec.seen == 0

    def test_slow_outside_envelope_is_retained(self):
        rec = FlightRecorder(
            ForensicsConfig(reservoir_interval=10_000),
            drift=FakeDrift(p_high_seconds=0.05),
        )
        kept = rec.observe_query(object(), finished(0.0, 0.2), 0.2)
        assert kept is not None and kept.reasons == ("slow",)
        fast = rec.observe_query(object(), finished(1.0, 1.01), 0.01)
        assert fast is None

    def test_error_attribute_is_retained(self):
        rec = recorder()
        kept = rec.observe_query(
            object(), finished(0.0, 0.01, error=True), 0.01
        )
        assert kept is not None and "error" in kept.reasons

    def test_bound_violation_event_pins_its_trace(self):
        rec = recorder()
        kept = rec.observe_query(
            object(), finished(0.0, 0.01), 0.01, event=object()
        )
        assert kept is not None
        assert kept.reasons == ("bound_violation",)
        assert kept.pinned

    def test_fault_window_retains_and_pins_first_only(self):
        rec = recorder()
        rec.note_window(1.0, 2.0, "crash node 1")
        first = rec.observe_query(object(), finished(1.1, 1.2), 0.1)
        second = rec.observe_query(object(), finished(1.3, 1.4), 0.1)
        outside = rec.observe_query(object(), finished(5.0, 5.1), 0.1)
        assert first.reasons == ("window:crash node 1",) and first.pinned
        assert second.reasons == ("window:crash node 1",) and not second.pinned
        assert outside is None

    def test_window_lookup_skips_the_windows_already_over(self):
        class CountingList(list):
            touched = 0

            def __getitem__(self, index):
                CountingList.touched += 1
                return super().__getitem__(index)

        rec = recorder()
        # 1000 one-second windows, noted out of time order, two of them
        # overlapping each other at the end of the timeline.
        order = list(range(1000))
        order[10], order[990] = order[990], order[10]
        noted = [(2.0 * i, 2.0 * i + 1.0, f"fault {i}") for i in order]
        noted.append((1998.5, 1999.5, "late twin"))
        for window in noted:
            rec.note_window(*window)
        rec.begin_window("breaker", 2100.0, "breaker-open node 3")

        def linear(start, end):
            for w_start, w_end, label in noted:
                if start < w_end and end > w_start:
                    return label
            for w_start, label in rec._open_windows.values():
                if end > w_start:
                    return label
            return None

        rec._windows_by_end = CountingList(rec._windows_by_end)
        probes = [
            (1996.2, 1996.4), (1997.5, 1997.9), (1998.6, 1998.9),
            (1999.2, 1999.4), (1999.6, 1999.9), (1995.0, 1996.0),
            (1997.0, 1998.0), (2050.0, 2051.0), (2099.0, 2100.5),
            (20.1, 20.2), (1980.3, 1980.4),
        ]
        for start, end in probes:
            CountingList.touched = 0
            assert rec._overlapping_window(start, end) == linear(start, end)
            if start > 1990.0:
                # ~10 bisection steps plus the few windows not yet over.
                assert CountingList.touched <= 20
        assert rec._overlapping_window(1998.6, 1998.9) == "fault 999"
        assert rec._overlapping_window(1999.2, 1999.4) == "late twin"
        assert rec._overlapping_window(2099.0, 2100.5) == "breaker-open node 3"

    def test_windows_sharing_an_end_resolve_in_noting_order(self):
        rec = recorder()
        # Same end, labels noted against their sort order: the label must
        # not break the tie, the noting order must.
        rec.note_window(1.0, 5.0, "zeta")
        rec.note_window(0.0, 5.0, "alpha")
        rec.note_window(2.0, 5.0, "mid")
        assert rec._overlapping_window(2.5, 3.0) == "zeta"
        assert rec._overlapping_window(0.5, 0.8) == "alpha"
        # A trace ending where the windows start overlaps none of them.
        assert rec._overlapping_window(-1.0, 0.0) is None
        kept = rec.observe_query(object(), finished(4.0, 4.5), 0.5)
        assert kept.reasons == ("window:zeta",) and kept.pinned

    def test_reservoir_keeps_every_nth_healthy_trace(self):
        rec = recorder(reservoir_interval=3)
        kept = [
            rec.observe_query(object(), finished(i, i + 0.01), 0.01)
            for i in range(6)
        ]
        assert [trace is not None for trace in kept] == [
            False, False, True, False, False, True,
        ]
        assert kept[2].reasons == ("baseline",)


class TestBounds:
    def test_trace_cap_evicts_oldest_unpinned(self):
        rec = recorder()
        rec.note_window(0.0, 1000.0, "w")
        kept = [
            rec.observe_query(object(), finished(i, i + 0.01), 0.01)
            for i in range(MAX_TRACES + 1)
        ]
        ids = [trace.trace_id for trace in rec.traces]
        # The first trace is pinned (first-per-window); the second — the
        # oldest unpinned — was evicted to admit the last.
        assert kept[0].trace_id in ids
        assert kept[1].trace_id not in ids
        assert kept[-1].trace_id in ids
        assert rec.dropped == 1 and rec.dropped_pinned == 0

    def test_baseline_traces_are_evicted_first(self):
        rec = recorder(reservoir_interval=1)
        baseline = rec.observe_query(object(), finished(0.0, 0.01), 0.01)
        assert baseline.reasons == ("baseline",)
        slow = FakeDrift(p_high_seconds=0.001)
        rec.drift = slow
        slow_traces = [
            rec.observe_query(object(), finished(i, i + 0.5), 0.5)
            for i in range(1, MAX_TRACES + 1)
        ]
        ids = [trace.trace_id for trace in rec.traces]
        # The baseline went first even though the slow traces are newer.
        assert baseline.trace_id not in ids
        assert all(trace.trace_id in ids for trace in slow_traces)

    def test_memory_budget_is_a_hard_bound(self, monkeypatch):
        monkeypatch.setattr(flightrec, "MEMORY_BUDGET_BYTES", 400)
        rec = recorder()
        rec.note_window(0.0, 100.0, "w")
        for i in range(5):
            rec.observe_query(object(), finished(i, i + 0.01), 0.01)
        assert rec.memory_bytes <= 400
        assert rec.dropped > 0
        # Even the pinned first-per-window trace yields to the byte budget
        # eventually; those evictions are counted separately.
        assert rec.memory_bytes == sum(t.approx_bytes for t in rec.traces)

    def test_eviction_is_never_silent(self):
        rec = recorder()
        rec.note_window(0.0, 1000.0, "w")
        for i in range(MAX_TRACES + 3):
            rec.observe_query(object(), finished(i, i + 0.01), 0.01)
        assert len(rec.traces) == MAX_TRACES
        assert rec.retained_total == MAX_TRACES + 3
        assert rec.dropped == 3


class FakeBoard:
    def __init__(self):
        self.current = {}

    def states(self, now):
        return dict(self.current)


class TestBreakerWatch:
    def test_transitions_are_synthesised_from_state_diffs(self):
        board = FakeBoard()
        watch = BreakerWatch()
        board.current = {1: "closed"}
        assert watch.poll([board], 1.0) == []
        board.current = {1: "open"}
        fresh = watch.poll([board], 2.0)
        assert len(fresh) == 1
        assert (fresh[0].from_state, fresh[0].to_state) == ("closed", "open")
        assert watch.poll([board], 3.0) == []  # no change, no transition

    def test_open_breaker_opens_a_recorder_window(self):
        rec = recorder()
        board = FakeBoard()
        watch = BreakerWatch(rec)
        board.current = {2: "open"}
        watch.poll([board], 1.0)
        kept = rec.observe_query(object(), finished(1.5, 1.6), 0.1)
        assert kept is not None
        assert kept.reasons == ("window:breaker-open node 2",)

    def test_window_closes_when_breaker_leaves_open(self):
        # Half-open is the recovery path: the retention window must end as
        # soon as the breaker stops fencing the node, not only on close.
        rec = recorder()
        board = FakeBoard()
        watch = BreakerWatch(rec)
        board.current = {2: "open"}
        watch.poll([board], 1.0)
        board.current = {2: "half_open"}
        watch.poll([board], 2.0)
        assert rec._open_windows == {}
        assert rec._overlapping_window(1.9, 2.5) == "breaker-open node 2"
        assert rec._overlapping_window(2.0, 2.5) is None
        after = rec.observe_query(object(), finished(3.0, 3.1), 0.1)
        assert after is None

    def test_finalize_closes_leftover_windows(self):
        rec = recorder()
        board = FakeBoard()
        watch = BreakerWatch(rec)
        board.current = {0: "open"}
        watch.poll([board], 1.0)
        watch.finalize(4.0)
        assert rec._open_windows == {}
        assert rec._overlapping_window(0.5, 1.1) == "breaker-open node 0"
        assert rec._overlapping_window(3.9, 5.0) == "breaker-open node 0"
        assert rec._overlapping_window(4.0, 5.0) is None

    def test_transition_cap_counts_drops(self):
        board = FakeBoard()
        watch = BreakerWatch()
        board.current = {node: "open" for node in range(MAX_TRANSITIONS)}
        watch.poll([board], 1.0)
        board.current = {0: "closed"}
        watch.poll([board], 2.0)
        assert len(watch.transitions) == MAX_TRANSITIONS
        assert watch.dropped_transitions == 1
