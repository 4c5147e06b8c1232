"""Incident reports: correlate faults, breakers, alerts, and traces.

A chaos run leaves its story scattered across five subsystems: the fault
injector knows what was *done* to the cluster, the breaker watch knows how
clients *reacted*, the burn-rate alerter knows when the SLO *noticed*, the
drift detector knows which query classes left their envelope, and the
flight recorder holds the traces that *show* the damage.  The incident
report stitches them into one timeline: injected fault windows (crash
through recover, partition through heal, …) annotated with the breaker
transitions, SLO alerts, and retained traces that fall inside each window
(± a correlation grace), rendered as text and exported as the
``incident-report/v1`` JSON artifact (docs/incident-report-v1.md).

:class:`LatencyForensics` is the bundle the serving tier wires in: one
critical-path aggregator + flight recorder + breaker watch, ticked from
the control loop and harvested into the serving report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .criticalpath import CriticalPathAggregator
from .flightrec import (
    BreakerTransition,
    BreakerWatch,
    FlightRecorder,
    ForensicsConfig,
    RetainedTrace,
)

#: Correlation padding around each fault window: breaker reactions trail
#: their cause, so one within this many seconds of a window counts toward it.
GRACE_SECONDS = 2.0

@dataclass(frozen=True)
class FaultWindow:
    """One injected-fault interval: from the fault to its repair."""

    start: float
    end: float
    kind: str
    node_id: int = -1
    detail: str = ""

    @property
    def label(self) -> str:
        target = f" node {self.node_id}" if self.node_id >= 0 else ""
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind}{target}{suffix}"

    def describe(self) -> str:
        return f"{self.label} [{self.start:.2f}s – {self.end:.2f}s]"


def _closes(kind: str, node_id: int, opener: FaultWindow) -> bool:
    if opener.kind == "crash":
        return kind == "recover" and node_id == opener.node_id
    if opener.kind == "partition":
        return kind == "heal"
    if opener.kind == "slow":
        return kind == "restore" and node_id == opener.node_id
    if opener.kind == "flaky":
        # p=0 re-arms the link; heal clears every network fault.
        return kind == "heal" or (
            kind == "flaky" and node_id == opener.node_id
        )
    if opener.kind == "delay":
        return kind == "heal" or (
            kind == "delay" and node_id == opener.node_id
        )
    return False


def fault_windows(items: Sequence[object], horizon: float) -> List[FaultWindow]:
    """Pair fault specs *or* applied events into degraded-state windows.

    Accepts :class:`~repro.replication.faults.FaultSpec` (pre-run, for
    registering recorder retention windows) and
    :class:`~repro.replication.faults.FaultEvent` (post-run, for the
    report) alike — both carry ``time``/``kind``/``node_id``/``detail`` and
    say whether they ``opens`` a window.  A window whose repair never fired
    extends to ``horizon``.
    """
    open_windows: List[FaultWindow] = []
    closed: List[FaultWindow] = []
    for item in sorted(items, key=lambda i: i.time):
        kind = item.kind
        node_id = item.node_id
        still_open: List[FaultWindow] = []
        for opener in open_windows:
            if _closes(kind, node_id, opener) and item.time > opener.start:
                closed.append(
                    FaultWindow(
                        start=opener.start,
                        end=item.time,
                        kind=opener.kind,
                        node_id=opener.node_id,
                        detail=opener.detail,
                    )
                )
            else:
                still_open.append(opener)
        open_windows = still_open
        if item.opens:
            open_windows.append(
                FaultWindow(
                    start=item.time,
                    end=horizon,
                    kind=kind,
                    node_id=node_id,
                    detail=item.detail,
                )
            )
    closed.extend(open_windows)
    closed.sort(key=lambda w: (w.start, w.kind, w.node_id))
    return closed


@dataclass(frozen=True)
class TimelineEntry:
    """One event on the merged incident timeline."""

    time: float
    kind: str  # fault | fault-repair | breaker | slo-alert | slo-clear | drift | trace
    label: str
    detail: str = ""

    def describe(self) -> str:
        return f"t={self.time:7.3f}s  {self.kind:<12} {self.label}" + (
            f"  ({self.detail})" if self.detail else ""
        )


@dataclass
class WindowCorrelation:
    """What the observability stack captured inside one fault window."""

    window: FaultWindow
    trace_ids: List[str] = field(default_factory=list)
    breaker_transitions: int = 0
    slo_alerts: int = 0

    @property
    def correlated(self) -> bool:
        """≥1 retained trace AND ≥1 breaker-or-alert reaction."""
        return bool(self.trace_ids) and (
            self.breaker_transitions > 0 or self.slo_alerts > 0
        )

    def payload(self) -> Dict[str, object]:
        return {
            "window": {
                "start": self.window.start,
                "end": self.window.end,
                "kind": self.window.kind,
                "node_id": self.window.node_id,
                "detail": self.window.detail,
                "label": self.window.label,
            },
            "trace_ids": list(self.trace_ids),
            "breaker_transitions": self.breaker_transitions,
            "slo_alerts": self.slo_alerts,
            "correlated": self.correlated,
        }


@dataclass
class IncidentReport:
    """Merged timeline + per-window correlation of one (chaos) run."""

    title: str
    horizon: float
    entries: List[TimelineEntry]
    windows: List[WindowCorrelation]
    retained_traces: int

    def reconstructs_schedule(self) -> bool:
        """True when every crash and partition window is fully correlated."""
        return all(
            c.correlated for c in self.windows
            if c.window.kind in ("crash", "partition")
        )

    def render(self) -> str:
        lines = [f"=== incident report: {self.title} ==="]
        lines.append(
            f"{len(self.windows)} fault window(s), "
            f"{self.retained_traces} retained trace(s), "
            f"correlation grace ±{GRACE_SECONDS:g}s"
        )
        lines.append("-- windows --")
        for correlation in self.windows:
            mark = "ok " if correlation.correlated else "MISS"
            lines.append(
                f"  [{mark}] {correlation.window.describe()}: "
                f"{len(correlation.trace_ids)} trace(s), "
                f"{correlation.breaker_transitions} breaker transition(s), "
                f"{correlation.slo_alerts} SLO alert(s)"
            )
        lines.append("-- timeline --")
        for entry in self.entries:
            lines.append("  " + entry.describe())
        return "\n".join(lines)

    def payload(self) -> Dict[str, object]:
        return {
            "schema": "incident-report/v1",
            "title": self.title,
            "horizon_seconds": self.horizon,
            "grace_seconds": GRACE_SECONDS,
            "retained_traces": self.retained_traces,
            "reconstructs_schedule": self.reconstructs_schedule(),
            "windows": [c.payload() for c in self.windows],
            "timeline": [
                {
                    "time": entry.time,
                    "kind": entry.kind,
                    "label": entry.label,
                    "detail": entry.detail,
                }
                for entry in self.entries
            ],
        }


def build_incident_report(
    title: str,
    horizon: float,
    fault_events: Sequence[object] = (),
    transitions: Sequence[BreakerTransition] = (),
    alerts: Sequence[object] = (),
    drift_reports: Sequence[object] = (),
    traces: Sequence[RetainedTrace] = (),
) -> IncidentReport:
    """Correlate everything one run observed into an :class:`IncidentReport`.

    ``fault_events`` are the injector's applied events (specs also work);
    ``alerts`` are :class:`~repro.obs.slo.SLOAlert`\\ s; ``drift_reports``
    are end-of-run :class:`~repro.obs.drift.DriftReport`\\ s (summaries, so
    they enter the timeline at ``horizon``); ``traces`` come from the
    flight recorder.  Correlation: a trace counts toward a window when its
    span overlaps it; breaker transitions count within :data:`GRACE_SECONDS`
    of the window (reactions trail their cause); an alert counts while it
    is firing (its [fired, cleared] interval overlaps the padded window).
    """
    windows = fault_windows(fault_events, horizon)
    entries: List[TimelineEntry] = []
    for item in fault_events:
        target = f"node {item.node_id}" if item.node_id >= 0 else "network"
        entries.append(
            TimelineEntry(
                time=item.time,
                kind="fault" if item.opens else "fault-repair",
                label=f"{item.kind} {target}",
                detail=item.detail,
            )
        )
    for transition in transitions:
        entries.append(
            TimelineEntry(
                time=transition.time,
                kind="breaker",
                label=f"node {transition.node_id}",
                detail=f"{transition.from_state} -> {transition.to_state}",
            )
        )
    for alert in alerts:
        entries.append(
            TimelineEntry(
                time=alert.fired_at,
                kind="slo-alert",
                label=alert.rule.name,
                detail=f"fast {alert.fast_burn:.1f}x slow {alert.slow_burn:.1f}x",
            )
        )
        if alert.cleared_at is not None:
            entries.append(
                TimelineEntry(
                    time=alert.cleared_at,
                    kind="slo-clear",
                    label=alert.rule.name,
                    detail=f"peak {alert.peak_fast_burn:.1f}x",
                )
            )
    for report in drift_reports:
        if getattr(report, "drifting", False):
            entries.append(
                TimelineEntry(
                    time=horizon,
                    kind="drift",
                    label=report.query_class,
                    detail=(
                        f"median residual "
                        f"{report.median_residual_seconds * 1000.0:+.2f} ms"
                    ),
                )
            )
    for trace in traces:
        entries.append(
            TimelineEntry(
                time=trace.retained_at,
                kind="trace",
                label=trace.trace_id,
                detail=(
                    f"{trace.query_class[:48]} "
                    f"{trace.latency_seconds * 1000.0:.2f} ms "
                    f"[{','.join(trace.reasons)}]"
                ),
            )
        )
    entries.sort(key=lambda e: (e.time, e.kind, e.label))

    correlations: List[WindowCorrelation] = []
    for window in windows:
        lo = window.start - GRACE_SECONDS
        hi = window.end + GRACE_SECONDS
        correlation = WindowCorrelation(window=window)
        for trace in traces:
            span = trace.span
            if span.end is not None and span.start < hi and span.end > lo:
                correlation.trace_ids.append(trace.trace_id)
        correlation.breaker_transitions = sum(
            1 for t in transitions if lo <= t.time <= hi
        )
        # An alert correlates while it is *firing*, not just at the firing
        # instant: a still-active alert spans [fired_at, cleared_at or
        # horizon], so one long burn covers every window it burned through.
        correlation.slo_alerts = sum(
            1
            for a in alerts
            if a.fired_at <= hi
            and (a.cleared_at is None or a.cleared_at >= lo)
        )
        correlations.append(correlation)

    return IncidentReport(
        title=title,
        horizon=horizon,
        entries=entries,
        windows=correlations,
        retained_traces=len(traces),
    )


class LatencyForensics:
    """The serving tier's forensics bundle: aggregator + recorder + watch.

    Construction wires the three pieces together; the serving simulation
    attaches :attr:`recorder` as the auditor's recorder hook, calls
    :meth:`tick` from its control loop (breaker diffing + time-series
    scrape), and :meth:`report` / :meth:`incident_report` at the end.
    """

    def __init__(
        self,
        config: Optional[ForensicsConfig] = None,
        drift: Optional[object] = None,
        tracers_fn: Optional[Callable[[], Iterable[object]]] = None,
    ):
        self.config = config or ForensicsConfig()
        self.aggregator = CriticalPathAggregator()
        self.recorder = FlightRecorder(
            self.config, drift=drift, aggregator=self.aggregator
        )
        self.watch = BreakerWatch(self.recorder)
        #: Resolves the app servers' live tracers on each call, so an
        #: autoscaled fleet stays covered.
        self.tracers_fn = tracers_fn

    def register_fault_windows(
        self, specs: Sequence[object], horizon: float
    ) -> List[FaultWindow]:
        """Pre-register injected-fault retention windows on the recorder."""
        windows = fault_windows(specs, horizon)
        for window in windows:
            self.recorder.note_window(window.start, window.end, window.label)
        return windows

    def tick(
        self,
        now: float,
        boards: Sequence[object] = (),
        store: Optional[object] = None,
    ) -> None:
        """One control-loop step: poll breakers, scrape gauges."""
        self.watch.poll(boards, now)
        if store is None:
            return
        self.aggregator.scrape(store, now)
        store.record("forensics.retained_traces", float(len(self.recorder.traces)), now)
        store.record("forensics.memory_bytes", float(self.recorder.memory_bytes), now)
        # Every retention cap reports what it turned away.
        for name, count in (
            ("dropped_traces", self.recorder.dropped),
            ("dropped_pinned", self.recorder.dropped_pinned),
            ("dropped_classes", self.aggregator.dropped_classes),
            ("dropped_transitions", self.watch.dropped_transitions),
        ):
            store.record(f"forensics.{name}", float(count), now)
        if self.tracers_fn is not None:
            store.record("obs.trace.dropped_roots", float(self.dropped_roots()), now)

    def dropped_roots(self) -> int:
        """Roots evicted by the fleet's tracers, summed over app servers."""
        return sum(tracer.dropped_roots for tracer in self.tracers_fn())

    def finalize(self, now: float) -> None:
        """Close still-open breaker windows at end of run."""
        self.watch.finalize(now)

    def incident_report(
        self,
        title: str,
        horizon: float,
        fault_events: Sequence[object] = (),
        alerts: Sequence[object] = (),
        drift_reports: Sequence[object] = (),
    ) -> IncidentReport:
        return build_incident_report(
            title=title,
            horizon=horizon,
            fault_events=fault_events,
            transitions=self.watch.transitions,
            alerts=alerts,
            drift_reports=drift_reports,
            traces=self.recorder.traces,
        )
