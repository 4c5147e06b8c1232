"""Tests for incident reports: fault windows, correlation, timeline."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs import flightrec
from repro.obs.criticalpath import MAX_CLASSES
from repro.obs.flightrec import MAX_TRANSITIONS, BreakerTransition, RetainedTrace
from repro.obs.incident import (
    GRACE_SECONDS,
    LatencyForensics,
    build_incident_report,
    fault_windows,
)
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.trace import Span
from repro.replication.faults import FaultSpec


def event(time, kind, node_id=-1, **fields):
    """A scheduled fault (``fault_windows`` takes specs and applied events
    alike)."""
    return FaultSpec(time=time, kind=kind, node_id=node_id, **fields)


def retained(trace_id, start, end, reasons=("slow",)):
    span = Span("query", "query", start, attributes={"sql": "Q"})
    span.end = end
    return RetainedTrace(
        trace_id=trace_id,
        span=span,
        query_class="Q",
        latency_seconds=end - start,
        retained_at=end,
        reasons=tuple(reasons),
        breakdown=None,
        approx_bytes=128,
    )


def alert(fired_at, cleared_at, name="burn-fast"):
    return SimpleNamespace(
        rule=SimpleNamespace(name=name),
        fired_at=fired_at,
        cleared_at=cleared_at,
        fast_burn=12.0,
        slow_burn=11.0,
        peak_fast_burn=14.0,
    )


class TestFaultWindows:
    def test_crash_recover_pairing(self):
        windows = fault_windows(
            [event(2.0, "crash", 1), event(5.0, "recover", 1)], horizon=10.0
        )
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == (2.0, 5.0)
        assert windows[0].label == "crash node 1"

    def test_unrepaired_fault_extends_to_horizon(self):
        windows = fault_windows([event(2.0, "crash", 1)], horizon=10.0)
        assert (windows[0].start, windows[0].end) == (2.0, 10.0)

    def test_partition_closed_by_heal(self):
        windows = fault_windows(
            [
                event(1.0, "partition", groups=((0, 1), (2, 3))),
                event(4.0, "heal"),
            ],
            horizon=10.0,
        )
        assert (windows[0].start, windows[0].end) == (1.0, 4.0)
        assert windows[0].kind == "partition"

    def test_flaky_zero_probability_rearms_the_link(self):
        windows = fault_windows(
            [
                event(1.0, "flaky", 4, probability=0.12),
                event(3.0, "flaky", 4, probability=0.0),
            ],
            horizon=10.0,
        )
        # p=0 repairs: it closes the window and opens nothing new.
        assert len(windows) == 1
        assert (windows[0].start, windows[0].end) == (1.0, 3.0)

    def test_mismatched_node_does_not_close(self):
        windows = fault_windows(
            [event(2.0, "crash", 1), event(5.0, "recover", 2)], horizon=10.0
        )
        assert (windows[0].start, windows[0].end) == (2.0, 10.0)


class TestCorrelation:
    def _report(self, **kwargs):
        defaults = dict(
            title="t",
            horizon=20.0,
            fault_events=[event(4.0, "crash", 1), event(8.0, "recover", 1)],
        )
        defaults.update(kwargs)
        return build_incident_report(**defaults)

    def test_trace_overlapping_window_correlates(self):
        report = self._report(
            traces=[retained("t-1", 5.0, 5.1), retained("t-2", 15.0, 15.1)],
            transitions=[BreakerTransition(4.5, 1, "closed", "open")],
        )
        window = report.windows[0]
        assert window.trace_ids == ["t-1"]
        assert window.breaker_transitions == 1
        assert window.correlated
        assert report.reconstructs_schedule()

    def test_traces_alone_do_not_correlate(self):
        report = self._report(traces=[retained("t-1", 5.0, 5.1)])
        assert not report.windows[0].correlated
        assert not report.reconstructs_schedule()
        assert [c.window for c in report.windows if not c.correlated] == [
            report.windows[0].window
        ]

    def test_breaker_reaction_within_grace_counts(self):
        # Reactions trail their cause: a transition just after the window
        # (within the grace) still correlates; one past it does not.
        report = self._report(
            traces=[retained("t-1", 5.0, 5.1)],
            transitions=[
                BreakerTransition(9.5, 1, "open", "half_open"),
                BreakerTransition(
                    8.0 + GRACE_SECONDS + 0.5, 1, "half_open", "closed"
                ),
            ],
        )
        assert report.windows[0].breaker_transitions == 1
        assert report.windows[0].correlated

    def test_alert_correlates_while_firing(self):
        # Fired before the window, cleared inside it: the burn was active
        # during the window, so it counts — the firing *interval* overlaps,
        # not the firing instant.
        report = self._report(
            traces=[retained("t-1", 5.0, 5.1)],
            alerts=[alert(fired_at=1.0, cleared_at=5.0)],
        )
        assert report.windows[0].slo_alerts == 1
        assert report.windows[0].correlated

    def test_cleared_alert_before_window_does_not_count(self):
        report = self._report(alerts=[alert(fired_at=0.5, cleared_at=1.0)])
        assert report.windows[0].slo_alerts == 0

    def test_still_firing_alert_counts(self):
        report = self._report(alerts=[alert(fired_at=5.0, cleared_at=None)])
        assert report.windows[0].slo_alerts == 1

    def test_reconstructs_schedule_checks_only_named_kinds(self):
        report = build_incident_report(
            "t",
            horizon=20.0,
            fault_events=[
                event(4.0, "crash", 1),
                event(8.0, "recover", 1),
                event(10.0, "slow", 2, factor=4.0),
            ],
            traces=[retained("t-1", 5.0, 5.1)],
            transitions=[BreakerTransition(4.5, 1, "closed", "open")],
        )
        # The slow window is uncorrelated, but the schedule is its crash
        # and partition windows.
        assert not report.windows[1].correlated
        assert report.reconstructs_schedule()


class TestRendering:
    def _report(self):
        return build_incident_report(
            "soak",
            horizon=20.0,
            fault_events=[event(4.0, "crash", 1), event(8.0, "recover", 1)],
            traces=[retained("t-1", 5.0, 5.1)],
            transitions=[BreakerTransition(4.5, 1, "closed", "open")],
            alerts=[alert(fired_at=5.0, cleared_at=7.0)],
        )

    def test_timeline_is_merged_and_ordered(self):
        report = self._report()
        times = [entry.time for entry in report.entries]
        assert times == sorted(times)
        kinds = {entry.kind for entry in report.entries}
        assert kinds == {
            "fault", "fault-repair", "breaker", "slo-alert", "slo-clear",
            "trace",
        }

    def test_render_names_every_window(self):
        rendered = self._report().render()
        assert "crash node 1 [4.00s – 8.00s]" in rendered
        assert "[ok ]" in rendered

    def test_payload_schema(self):
        payload = self._report().payload()
        assert payload["schema"] == "incident-report/v1"
        assert payload["reconstructs_schedule"] is True


class TestLatencyForensics:
    def test_register_fault_windows_feeds_the_recorder(self):
        forensics = LatencyForensics()
        windows = forensics.register_fault_windows(
            [event(2.0, "crash", 1), event(5.0, "recover", 1)], horizon=10.0
        )
        assert [w.label for w in windows] == ["crash node 1"]
        recorder = forensics.recorder
        assert recorder._overlapping_window(1.0, 2.1) == "crash node 1"
        assert recorder._overlapping_window(4.9, 6.0) == "crash node 1"
        assert recorder._overlapping_window(1.0, 2.0) is None
        assert recorder._overlapping_window(5.0, 6.0) is None

    def test_incident_report_uses_recorder_and_watch(self):
        forensics = LatencyForensics()
        forensics.register_fault_windows(
            [event(2.0, "crash", 1), event(5.0, "recover", 1)], horizon=10.0
        )
        span = Span("query", "query", 3.0, attributes={"sql": "Q"})
        span.end = 3.1
        assert forensics.recorder.observe_query(None, span, 0.1) is not None
        board = SimpleNamespace(states=lambda now: {1: "open"})
        forensics.tick(3.0, boards=[board])
        report = forensics.incident_report(
            "run", 10.0,
            fault_events=[event(2.0, "crash", 1), event(5.0, "recover", 1)],
        )
        assert report.reconstructs_schedule()
        assert len(forensics.watch.transitions) == 1
        assert forensics.watch.dropped_transitions == 0

    def test_tick_gauges_transitions_past_the_cap(self):
        forensics = LatencyForensics()
        store = TimeSeriesStore()
        states = {node: "open" for node in range(MAX_TRANSITIONS + 1)}
        forensics.tick(
            1.0,
            boards=[SimpleNamespace(states=lambda now: states)],
            store=store,
        )
        assert len(forensics.watch.transitions) == MAX_TRANSITIONS
        assert store.latest_value("forensics.dropped_transitions") == 1.0
        # Every retention cap reports what it turned away.
        for gauge in ("dropped_traces", "dropped_pinned", "dropped_classes"):
            assert store.latest_value(f"forensics.{gauge}") == 0.0

    def test_tick_gauges_pinned_traces_lost_to_the_byte_budget(
        self, monkeypatch
    ):
        monkeypatch.setattr(flightrec, "MEMORY_BUDGET_BYTES", 1)
        forensics = LatencyForensics()
        forensics.register_fault_windows(
            [event(0.0, "crash", 1), event(5.0, "recover", 1)], horizon=10.0
        )
        span = Span("query", "query", 1.0, attributes={"sql": "Q"})
        span.end = 1.1
        kept = forensics.recorder.observe_query(None, span, 0.1)
        assert kept.pinned
        store = TimeSeriesStore()
        forensics.tick(2.0, store=store)
        assert forensics.recorder.traces == []
        assert store.latest_value("forensics.dropped_traces") == 1.0
        assert store.latest_value("forensics.dropped_pinned") == 1.0

    def test_tick_gauges_query_classes_past_the_cap(self):
        forensics = LatencyForensics()
        for index in range(MAX_CLASSES + 1):
            span = Span(
                "query", "query", float(index),
                attributes={"sql": f"Q{index:03d}"},
            )
            span.end = index + 0.5
            forensics.recorder.observe_query(None, span, 0.5)
        store = TimeSeriesStore()
        forensics.tick(float(MAX_CLASSES + 1), store=store)
        assert forensics.aggregator.observed == MAX_CLASSES + 1
        assert store.latest_value("forensics.dropped_classes") == 1.0
        assert store.latest_value("forensics.dropped_pinned") == 0.0
