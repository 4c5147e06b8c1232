"""Critical-path analysis: where did every microsecond of a query go?

A finished span tree says *what happened*; this module says *what the time
was spent on*.  :func:`analyze_trace` walks a root span and partitions its
``[start, end]`` window into **exclusive** segment classes:

* ``queue_wait`` — time an RPC spent behind other requests in a storage
  node's queue (carried on the span as ``queue_wait_seconds``),
* ``rpc_service`` — storage-tier service time: RPC spans minus their queue
  wait, deadline waits (``rpc-timeout`` spans), and coalesced waits on a
  sibling branch's in-flight read,
* ``retry_backoff`` — jittered sleeps of the resilience policy,
* ``view_maintenance`` — write-attributed incremental view deltas and
  handoff work (the whole subtree is charged to the cause, not re-split),
* ``client_compute`` — the residual: time inside the query that no storage
  span accounts for (planning, deserialisation, local operators).

**Overlap semantics.**  :meth:`~repro.engine.session.Session.gather` runs
sibling branches on scratch clocks starting at the same instant, so their
spans overlap in simulated time, and so may a retry backoff and an RPC.
The walk resolves every overlapping stretch to the *dominant* child — the one
whose span extends furthest — and recurses only into it, switching
siblings mid-window when the dominant child changes.  Time covered by a
non-dominant sibling is overlapped slack: it consumed no wall clock, so it
contributes nothing.  The result is an exact partition — segment seconds
sum to the root duration, and shares to 1.0, up to float addition error.

The per-key accounting inside a coalesced RPC (``Span.logical_reads``,
exported as ``logical-op`` spans) describes work, not wall time; it rides
on the ``rpc`` span, not among anyone's children, so the walk never meets
it: one RPC span with forty logical reads is one RPC's worth of service.

:class:`CriticalPathAggregator` folds breakdowns into per-query-class
profiles — time-weighted mean shares, answering "this class's time goes to
X" — and scrapes the shares into a
:class:`~repro.obs.timeseries.TimeSeriesStore` for the dashboard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .trace import Span

#: Every segment class, in reporting order.  ``analyze_trace`` always
#: returns all of them (zero-valued classes included) so downstream
#: consumers never key-check.
SEGMENT_CLASSES = (
    "queue_wait",
    "rpc_service",
    "retry_backoff",
    "view_maintenance",
    "client_compute",
)

_QUEUE = "queue_wait"
_RPC = "rpc_service"
_RETRY = "retry_backoff"
_VIEW = "view_maintenance"
_CLIENT = "client_compute"


def query_class_of(span: Span) -> str:
    """The query class a root span belongs to.

    Uses the whitespace-normalised SQL when present — the same key the
    drift detector groups residuals under — so forensics profiles line up
    with drift reports; write/maintenance roots fall back to the span name.
    """
    sql = span.attributes.get("sql")
    if isinstance(sql, str):
        return _normalised_sql(sql)
    return span.name


@lru_cache(maxsize=1024)
def _normalised_sql(sql: str) -> str:
    """Whitespace-normalised SQL; one entry per prepared statement text."""
    return " ".join(sql.split())


@dataclass
class CriticalPathBreakdown:
    """One trace's end-to-end latency, partitioned into segment classes.

    Treated as immutable, but not declared frozen: one is built for every
    finished query, and a frozen dataclass pays ``object.__setattr__`` per
    field.
    """

    query_class: str
    root_name: str
    start: float
    end: float
    #: Exclusive seconds per segment class; sums to ``duration_seconds``.
    segments: Dict[str, float]

    @property
    def duration_seconds(self) -> float:
        return self.end - self.start

    @property
    def shares(self) -> Dict[str, float]:
        """Fraction of the trace per segment class; always sums to 1.0.

        A zero-duration trace (everything resolved from cache, no simulated
        time charged) is by definition all client compute.
        """
        duration = self.duration_seconds
        if duration <= 0.0:
            return {
                cls: (1.0 if cls == _CLIENT else 0.0)
                for cls in SEGMENT_CLASSES
            }
        return {cls: self.segments[cls] / duration for cls in SEGMENT_CLASSES}

    def describe(self) -> str:
        parts = ", ".join(
            f"{cls} {share * 100.0:.1f}%"
            for cls, share in sorted(
                self.shares.items(), key=lambda item: -item[1]
            )
            if share > 0.0005
        )
        return (
            f"{self.root_name}: {self.duration_seconds * 1000.0:.2f} ms = "
            f"{parts or 'client_compute 100.0%'}"
        )


def _split_rpc(span: Span, lo: float, hi: float, segments: Dict[str, float]) -> None:
    """Partition one rpc span's window into queue wait and service time.

    When the sweep hands us only part of the span (an overlap was resolved
    to a sibling), the split is scaled proportionally — attribute shapes
    are a property of the whole RPC, not of where it was cut.
    """
    window = hi - lo
    if window <= 0.0:
        return
    duration = span.end - span.start if span.end is not None else 0.0
    scale = window / duration if duration > 0.0 else 0.0
    queue = span.attributes.get("queue_wait_seconds")
    if queue is None:
        # Nothing carved out (the common shape outside serving mode).
        segments[_RPC] += duration * scale
        return
    queue = float(queue) if isinstance(queue, (int, float)) else 0.0
    queue = min(max(queue, 0.0), duration)
    segments[_QUEUE] += queue * scale
    segments[_RPC] += (duration - queue) * scale


#: Leaf kinds whose whole window goes to one segment class.
_LEAF_SEGMENT = {
    # The whole subtree is the write's maintenance bill: its inner RPCs are
    # *caused by* the view, and that cause is what the operator reading the
    # breakdown needs to see.
    "view-maintenance": _VIEW,
    # Waiting out a deadline, or waiting on a sibling branch's in-flight
    # read: either way the time went to the storage tier.
    "rpc-timeout": _RPC,
    "coalesced": _RPC,
    "resilience": _RETRY,
}

_NEVER = float("-inf")


def _attribute(span: Span, lo: float, hi: float, segments: Dict[str, float]) -> None:
    """Attribute the wall-time window ``[lo, hi]`` owned by ``span``."""
    if hi <= lo:
        return
    kind = span.kind
    if kind == "rpc":
        _split_rpc(span, lo, hi, segments)
        return
    leaf = _LEAF_SEGMENT.get(kind)
    if leaf is not None:
        segments[leaf] += hi - lo
        return

    # Structural span (query/write root, operator, gather, branch, unknown
    # kinds): its children own their windows, the gaps are client compute.
    children = span.children
    if not children:
        segments[_CLIENT] += hi - lo
        return

    # The dominant shape — children already in start order, none
    # overlapping: every pipeline of operators.  One look over the children
    # confirms it (nothing may be attributed before that: a later sibling
    # that overlaps can take time from an earlier one), one walk attributes
    # each child and the gaps between them.
    if len(children) > 1:
        covered = _NEVER
        for child in children:
            end = child.end
            if end is None:
                continue
            if child.start < covered:
                _attribute_overlapping(children, lo, hi, segments)
                return
            if end > covered:
                covered = end
    cursor = lo
    for child in children:
        end = child.end
        if end is None:
            continue
        start = child.start
        if start < lo:
            start = lo
        if end > hi:
            end = hi
        if end <= start:
            continue
        if start > cursor:
            segments[_CLIENT] += start - cursor
        if child.kind == "rpc":
            # Half of all children: split here, not one call further down.
            _split_rpc(child, start, end, segments)
        else:
            _attribute(child, start, end, segments)
        cursor = end
    if hi > cursor:
        segments[_CLIENT] += hi - cursor


def _attribute_overlapping(
    children: List[Span], lo: float, hi: float, segments: Dict[str, float]
) -> None:
    """Attribute ``[lo, hi]`` among children that overlap (gather branches,
    a backoff beside an RPC): each elementary interval goes to the child extending
    furthest, the uncovered ones to client compute."""
    intervals: List[Tuple[float, float, Span]] = []
    for child in children:
        if child.end is None:
            continue
        start = child.start if child.start > lo else lo
        end = child.end if child.end < hi else hi
        if end > start:
            intervals.append((start, end, child))
    intervals.sort(key=lambda interval: interval[0])

    bounds = {lo, hi}
    for start, end, _ in intervals:
        bounds.add(start)
        bounds.add(end)
    ordered = sorted(bounds)

    # Merge consecutive elementary intervals that resolve to the same
    # child before recursing, so a child is re-entered once per contiguous
    # stretch it dominates (keeps rpc proportional splits exact).
    runs: List[Tuple[float, float, Optional[Span]]] = []
    for a, b in zip(ordered, ordered[1:]):
        dominant: Optional[Tuple[float, float, Span]] = None
        for interval in intervals:
            start, end, _ = interval
            if start <= a and end >= b:
                if dominant is None or end > dominant[1]:
                    dominant = interval
        child = dominant[2] if dominant is not None else None
        if runs and runs[-1][2] is child:
            runs[-1] = (runs[-1][0], b, child)
        else:
            runs.append((a, b, child))
    for a, b, child in runs:
        if child is None:
            segments[_CLIENT] += b - a
        else:
            _attribute(child, a, b, segments)


def analyze_trace(root: Span) -> CriticalPathBreakdown:
    """Partition a finished root span's latency into segment classes.

    Raises ``ValueError`` on an open span — a critical path only exists
    once the trace has an end.
    """
    if root.end is None:
        raise ValueError(f"span {root.name!r} is still open")
    segments = dict.fromkeys(SEGMENT_CLASSES, 0.0)
    if root.end > root.start:
        _attribute(root, root.start, root.end, segments)
    return CriticalPathBreakdown(
        query_class=query_class_of(root),
        root_name=root.name,
        start=root.start,
        end=root.end,
        segments=segments,
    )


@dataclass(frozen=True)
class BreakdownProfile:
    """One query class's aggregated latency anatomy."""

    query_class: str
    traces: int
    #: Time-weighted mean share per segment class.
    mean_shares: Dict[str, float]

    @property
    def dominant(self) -> str:
        return max(SEGMENT_CLASSES, key=lambda cls: self.mean_shares[cls])

    def describe(self) -> str:
        return (
            f"{self.query_class!r}: {self.traces} traces, dominated by "
            f"{self.dominant} {self.mean_shares[self.dominant] * 100.0:.1f}%"
        )


class _ClassAccumulator:
    __slots__ = ("count", "total_seconds", "segment_totals")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.segment_totals = {cls: 0.0 for cls in SEGMENT_CLASSES}


#: Query classes the aggregator tracks.
MAX_CLASSES = 64


class CriticalPathAggregator:
    """Folds per-trace breakdowns into per-query-class profiles.

    State is bounded: at most :data:`MAX_CLASSES` query classes, each
    keeping running segment totals.  Classes turned away by the cap are
    counted in :attr:`dropped_classes` — no silent loss.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, _ClassAccumulator] = {}
        self.observed = 0
        self.dropped_classes = 0

    def observe(self, breakdown: CriticalPathBreakdown) -> None:
        self.observed += 1
        state = self._classes.get(breakdown.query_class)
        if state is None:
            if len(self._classes) >= MAX_CLASSES:
                self.dropped_classes += 1
                return
            state = _ClassAccumulator()
            self._classes[breakdown.query_class] = state
        state.count += 1
        state.total_seconds += breakdown.end - breakdown.start
        totals = state.segment_totals
        for cls, seconds in breakdown.segments.items():
            if seconds:
                totals[cls] += seconds

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _mean_shares(state: _ClassAccumulator) -> Dict[str, float]:
        """Time-weighted mean share per segment class."""
        total = state.total_seconds
        if total > 0.0:
            return {
                cls: state.segment_totals[cls] / total
                for cls in SEGMENT_CLASSES
            }
        return {
            cls: (1.0 if cls == _CLIENT else 0.0) for cls in SEGMENT_CLASSES
        }

    def profiles(self) -> List[BreakdownProfile]:
        return [
            BreakdownProfile(query_class, state.count, self._mean_shares(state))
            for query_class, state in sorted(self._classes.items())
        ]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def scrape(self, store, now: float) -> None:
        """Record running per-class segment shares into a time-series store.

        Series: ``forensics.segment_share{query_class=..., segment=...}``
        (time-weighted running mean) — the feed behind the dashboard's
        LATENCY BREAKDOWN section.
        """
        for query_class in sorted(self._classes):
            shares = self._mean_shares(self._classes[query_class])
            for cls, share in shares.items():
                if share <= 0.0:
                    continue
                store.record(
                    "forensics.segment_share",
                    share,
                    now,
                    {"query_class": query_class, "segment": cls},
                )
        store.record("forensics.traces_analyzed", float(self.observed), now)
