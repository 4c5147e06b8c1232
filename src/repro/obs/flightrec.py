"""Tail-based flight recorder: keep exactly the traces worth explaining.

A tracer's root deque keeps the *most recent* traces; under load the
interesting ones — the p99 spike, the query that tripped its bound during
a partition — are evicted thousands of interactions before anyone looks.
The :class:`FlightRecorder` inverts that, and a serving run that turns
tracing on for forensics makes it the only trace store (the app servers'
tracers keep no root, ``keep=0``): every finished query is offered (via
the :class:`~repro.obs.audit.BoundAuditor` hook), and a trace is
**retained** when it is

* ``slow`` — observed latency outside the latency model's stated per-class
  envelope (the drift detector's cached ``p_high`` quantile, so the hot
  path pays one dict hit),
* ``error`` — the execution raised,
* ``bound_violation`` — the runtime bound auditor flagged it (these pin
  their trace against eviction),
* ``fault_window`` / ``breaker_window`` — the trace overlapped an injected
  fault window or a circuit-breaker-open window,
* ``baseline`` — a small deterministic every-Nth reservoir, so there is
  always a healthy trace to diff a pathological one against.

Retention is **bounded twice**: a trace-count cap and a byte budget over
estimated span-tree sizes.  Eviction prefers baseline-only traces, then
the oldest unpinned trace; every eviction is counted (no silent caps).
The first trace retained for each distinct window label is pinned so an
incident report can always cite at least one trace per fault window.

:class:`BreakerWatch` synthesises circuit-breaker *transitions* (the
breaker state machine is derived from timestamps, so no transition events
exist natively): polled each control tick, it diffs per-node states,
records :class:`BreakerTransition` objects, and opens/closes recorder
windows so traces overlapping an open breaker are retained.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .criticalpath import (
    CriticalPathAggregator,
    CriticalPathBreakdown,
    analyze_trace,
)
from .trace import Span

#: Hard cap on concurrently retained traces.
MAX_TRACES = 64
#: Byte budget over estimated retained span-tree sizes (a hard bound).
MEMORY_BUDGET_BYTES = 1_000_000
#: A trace is ``slow`` when latency exceeds envelope.p_high * this factor.
SLOW_GRACE_FACTOR = 1.0


@dataclass(frozen=True)
class ForensicsConfig:
    """Bounds of one flight recorder."""

    #: Every Nth otherwise-unretained trace is kept as a healthy baseline.
    reservoir_interval: int = 97

    def __post_init__(self) -> None:
        if self.reservoir_interval <= 0:
            raise ValueError("reservoir_interval must be positive")


@dataclass(frozen=True)
class BreakerTransition:
    """One observed circuit-breaker state change on one client board."""

    time: float
    node_id: int
    from_state: str
    to_state: str

    def describe(self) -> str:
        return (
            f"t={self.time:7.3f}s breaker[node {self.node_id}] "
            f"{self.from_state} -> {self.to_state}"
        )


@dataclass
class RetainedTrace:
    """One trace the recorder decided to keep, plus why."""

    trace_id: str
    span: Span
    query_class: str
    latency_seconds: float
    retained_at: float
    reasons: Tuple[str, ...]
    breakdown: Optional[CriticalPathBreakdown]
    approx_bytes: int
    #: Pinned traces (bound violations, first-per-window) resist eviction.
    pinned: bool = False


def _estimate_bytes(span: Span) -> int:
    """Rough retained-memory estimate of a span tree (budget accounting)."""
    total = 0
    for node in span.walk():
        total += 120 + 48 * len(node.attributes)
    return total


class FlightRecorder:
    """Bounded tail-based trace retention.

    Parameters
    ----------
    config:
        Retention bounds; defaults to :class:`ForensicsConfig`.
    drift:
        Optional :class:`~repro.obs.drift.PredictionDriftDetector` (duck
        typed: ``_predict_envelope(query)``); provides the per-class
        latency envelope behind the ``slow`` predicate and shares its
        plan-keyed cache, so the hot-path cost is a dict hit.
    aggregator:
        Optional :class:`~repro.obs.criticalpath.CriticalPathAggregator`;
        when present every observed trace's breakdown feeds it (retained
        or not), building the per-class profiles.
    """

    def __init__(
        self,
        config: Optional[ForensicsConfig] = None,
        drift: Optional[object] = None,
        aggregator: Optional[CriticalPathAggregator] = None,
    ):
        self.config = config or ForensicsConfig()
        self.drift = drift
        self.aggregator = aggregator
        #: Retained traces by id, oldest first.
        self._retained: "OrderedDict[str, RetainedTrace]" = OrderedDict()
        self._retained_bytes = 0
        # Closed retention windows as (end, noting order, start, label),
        # sorted, so a lookup can skip every window that ended before the
        # trace began.
        self._windows_by_end: List[Tuple[float, int, float, str]] = []
        #: Open-ended windows (breaker currently open): key -> (start, label).
        self._open_windows: Dict[object, Tuple[float, str]] = {}
        #: Window labels that already pinned their first trace.
        self._pinned_windows: set = set()
        # Counters — retention must never be silent.
        self.seen = 0
        #: Traces ever retained; the n-th one is ``t-<n>``.
        self.retained_total = 0
        self.dropped = 0
        self.dropped_pinned = 0
        self.reasons_count: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Windows (fault plane, circuit breakers)
    # ------------------------------------------------------------------
    def note_window(self, start: float, end: float, label: str) -> None:
        """Register a closed retention window (e.g. an injected fault)."""
        if end < start:
            raise ValueError("window end before start")
        by_end = self._windows_by_end
        insort(by_end, (end, len(by_end), start, label))

    def begin_window(self, key: object, start: float, label: str) -> None:
        """Open a window whose end is not yet known (breaker just opened)."""
        self._open_windows.setdefault(key, (start, label))

    def end_window(self, key: object, end: float) -> None:
        """Close a previously opened window; unknown keys are a no-op."""
        entry = self._open_windows.pop(key, None)
        if entry is not None:
            start, label = entry
            self.note_window(start, max(start, end), label)

    def _overlapping_window(self, start: float, end: float) -> Optional[str]:
        """Label of the earliest-noted window overlapping ``(start, end)``."""
        by_end = self._windows_by_end
        found: Optional[Tuple[int, str]] = None
        # Windows with ``w_end <= start`` sort before this point.
        first = bisect_right(by_end, (start, len(by_end)))
        for index in range(first, len(by_end)):
            _, noted, w_start, label = by_end[index]
            if end > w_start and (found is None or noted < found[0]):
                found = (noted, label)
        if found is not None:
            return found[1]
        for w_start, label in self._open_windows.values():
            if end > w_start:
                return label
        return None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_query(
        self,
        query: Optional[object],
        span: Span,
        latency_seconds: float,
        event: Optional[object] = None,
    ) -> Optional[RetainedTrace]:
        """Offer one finished traced query; returns the trace if retained.

        This is the :class:`~repro.obs.audit.BoundAuditor` hook: the
        auditor calls it for every audited query, passing the audit event
        when the query violated its static bound.
        """
        if span.end is None:
            return None
        self.seen += 1
        breakdown = analyze_trace(span)
        if self.aggregator is not None:
            self.aggregator.observe(breakdown)
        query_class = breakdown.query_class

        reasons: List[str] = []
        pinned = False
        if event is not None:
            reasons.append("bound_violation")
            pinned = True
        if span.attributes.get("error"):
            reasons.append("error")
        # The calls below are skipped when they have nothing to consult:
        # on this path a call into code not run since the last query costs
        # more than the work it does.
        if self.drift is not None:
            envelope = self._envelope(query)
            if (
                envelope is not None
                and latency_seconds
                > envelope.p_high_seconds * SLOW_GRACE_FACTOR
            ):
                reasons.append("slow")
        label = (
            self._overlapping_window(span.start, span.end)
            if self._windows_by_end or self._open_windows
            else None
        )
        if label is not None:
            reasons.append(f"window:{label}")
            pinned = self._first_in_window(label) or pinned
        if not reasons and self.seen % self.config.reservoir_interval == 0:
            reasons.append("baseline")
        if not reasons:
            return None
        return self._retain(
            span, query_class, latency_seconds, tuple(reasons), breakdown,
            pinned=pinned,
        )

    def observe_error(self, query: Optional[object], span: Span) -> Optional[RetainedTrace]:
        """Offer a trace whose execution raised (never reaches the auditor)."""
        if span.end is None:
            return None
        self.seen += 1
        breakdown = analyze_trace(span)
        if self.aggregator is not None:
            self.aggregator.observe(breakdown)
        query_class = breakdown.query_class
        latency = span.duration
        reasons: List[str] = ["error"]
        pinned = False
        label = self._overlapping_window(span.start, span.end)
        if label is not None:
            reasons.append(f"window:{label}")
            pinned = self._first_in_window(label)
        return self._retain(
            span, query_class, latency, tuple(reasons), breakdown,
            pinned=pinned,
        )

    def _first_in_window(self, label: str) -> bool:
        """Whether a trace in window ``label`` is its first, and so pinned:
        a window whose only traces failed (a partition) still keeps one."""
        if label in self._pinned_windows:
            return False
        self._pinned_windows.add(label)
        return True

    def _envelope(self, query: Optional[object]):
        if query is None or self.drift is None:
            return None
        predict = getattr(self.drift, "_predict_envelope", None)
        if predict is None:
            return None
        return predict(query)

    # ------------------------------------------------------------------
    # Retention bookkeeping
    # ------------------------------------------------------------------
    def _retain(
        self,
        span: Span,
        query_class: str,
        latency_seconds: float,
        reasons: Tuple[str, ...],
        breakdown: Optional[CriticalPathBreakdown],
        pinned: bool,
    ) -> RetainedTrace:
        self.retained_total += 1
        trace = RetainedTrace(
            trace_id=f"t-{self.retained_total:06d}",
            span=span,
            query_class=query_class,
            latency_seconds=latency_seconds,
            retained_at=span.end if span.end is not None else span.start,
            reasons=reasons,
            breakdown=breakdown,
            approx_bytes=_estimate_bytes(span) + (320 if breakdown else 0),
            pinned=pinned,
        )
        self._retained[trace.trace_id] = trace
        self._retained_bytes += trace.approx_bytes
        for reason in reasons:
            key = reason.split(":", 1)[0]
            self.reasons_count[key] = self.reasons_count.get(key, 0) + 1
        self._evict()
        return trace

    def _evict(self) -> None:
        while (
            len(self._retained) > MAX_TRACES
            or self._retained_bytes > MEMORY_BUDGET_BYTES
        ):
            victim = self._pick_victim()
            if victim is None:
                break
            dropped = self._retained.pop(victim)
            self._retained_bytes -= dropped.approx_bytes
            self.dropped += 1
            if dropped.pinned:
                self.dropped_pinned += 1

    def _pick_victim(self) -> Optional[str]:
        # Oldest baseline-only first, then oldest unpinned, then — the byte
        # budget is a hard bound — oldest pinned (counted separately).
        for trace_id, trace in self._retained.items():
            if not trace.pinned and trace.reasons == ("baseline",):
                return trace_id
        for trace_id, trace in self._retained.items():
            if not trace.pinned:
                return trace_id
        for trace_id in self._retained:
            return trace_id
        return None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def traces(self) -> List[RetainedTrace]:
        """Currently retained traces, oldest first."""
        return list(self._retained.values())

    @property
    def memory_bytes(self) -> int:
        """Estimated bytes currently held by retained traces."""
        return self._retained_bytes

    def describe(self) -> str:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.reasons_count.items())
        )
        return (
            f"flight recorder: {len(self._retained)} retained of "
            f"{self.seen} seen ({self.retained_total} total, "
            f"{self.dropped} evicted), {self._retained_bytes} bytes"
            + (f"; reasons: {reasons}" if reasons else "")
        )


#: Breaker transitions a watch keeps; later ones are counted as dropped.
MAX_TRANSITIONS = 512


class BreakerWatch:
    """Synthesises breaker transitions by polling board states.

    :class:`~repro.resilience.breaker.CircuitBreaker` state is *derived*
    (``closed``/``open``/``half_open`` from ``_opened_at`` + now), so no
    transition events exist to subscribe to.  The watch diffs the fleet's
    per-node states each poll (the serving control tick), records
    :class:`BreakerTransition` objects, and maintains recorder windows:
    a window opens when a client's breaker for a node opens and closes
    as soon as that breaker leaves the ``open`` state.
    """

    def __init__(self, recorder: Optional[FlightRecorder] = None):
        self.recorder = recorder
        self.transitions: List[BreakerTransition] = []
        self.dropped_transitions = 0
        #: id(board) -> (board ref, {node_id: state}).  The strong board
        #: reference keeps a recycled id() from aliasing a new board.
        self._last: Dict[int, Tuple[object, Dict[int, str]]] = {}

    def poll(self, boards: Iterable[object], now: float) -> List[BreakerTransition]:
        """Diff every board's states; returns the new transitions."""
        fresh: List[BreakerTransition] = []
        for board in boards:
            key = id(board)
            states: Dict[int, str] = dict(board.states(now))
            previous = self._last.get(key)
            previous_states = previous[1] if previous is not None and previous[0] is board else {}
            for node_id, state in states.items():
                before = previous_states.get(node_id, "closed")
                if state == before:
                    continue
                transition = BreakerTransition(
                    time=now, node_id=node_id,
                    from_state=before, to_state=state,
                )
                fresh.append(transition)
                if self.recorder is not None:
                    # The retention window tracks the *fenced* phase only:
                    # it opens with the breaker and closes as soon as the
                    # breaker leaves ``open`` (half-open probing is the
                    # recovery path, not the degradation) — otherwise one
                    # board idling in half-open would keep retaining every
                    # healthy trace for the rest of the run.
                    window_key = ("breaker", key, node_id)
                    if state == "open":
                        self.recorder.begin_window(
                            window_key, now, f"breaker-open node {node_id}"
                        )
                    else:
                        self.recorder.end_window(window_key, now)
            self._last[key] = (board, states)
        for transition in fresh:
            if len(self.transitions) < MAX_TRANSITIONS:
                self.transitions.append(transition)
            else:
                self.dropped_transitions += 1
        return fresh

    def finalize(self, now: float) -> None:
        """Close any still-open breaker windows at end of run."""
        if self.recorder is None:
            return
        for key in [
            k for k in self.recorder._open_windows
            if isinstance(k, tuple) and k and k[0] == "breaker"
        ]:
            self.recorder.end_window(key, now)
