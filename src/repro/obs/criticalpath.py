"""Critical-path analysis: where did every microsecond of a query go?

A finished span tree says *what happened*; this module says *what the time
was spent on*.  :func:`analyze_trace` walks a root span and partitions its
``[start, end]`` window into **exclusive** segment classes:

* ``queue_wait`` — time an RPC spent behind other requests in a storage
  node's queue (carried on the span as ``queue_wait_seconds``),
* ``rpc_service`` — storage-tier service time: RPC spans minus their queue
  wait and hedge overlap, deadline waits (``rpc-timeout`` spans), and
  coalesced waits on a sibling branch's in-flight read,
* ``retry_backoff`` — jittered sleeps of the resilience policy,
* ``hedge_overlap`` — the tail of a hedged read during which two requests
  were in flight (everything past the hedge delay),
* ``view_maintenance`` — write-attributed incremental view deltas and
  handoff work (the whole subtree is charged to the cause, not re-split),
* ``compaction_interference`` — storage-engine stalls charged to the
  request (spans carrying ``compaction_stall_seconds``).  Nothing outside
  tests writes that attribute, so the segment is always zero in a real run;
  it stays while the pinned ``flight-recorder/v1`` fixture lists it,
* ``client_compute`` — the residual: time inside the query that no storage
  span accounts for (planning, deserialisation, local operators).

**Overlap semantics.**  :meth:`~repro.engine.session.Session.gather` runs
sibling branches on scratch clocks starting at the same instant, so their
spans overlap in simulated time; a hedge twin overlaps its primary.  The
walk resolves every overlapping stretch to the *dominant* child — the one
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
profiles — time-weighted mean shares plus a top-k-slowest tail profile,
answering "this class's p99 is dominated by X" — and can scrape the shares
into a :class:`~repro.obs.timeseries.TimeSeriesStore` for the dashboard.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
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
    "hedge_overlap",
    "view_maintenance",
    "compaction_interference",
    "client_compute",
)

_QUEUE = "queue_wait"
_RPC = "rpc_service"
_RETRY = "retry_backoff"
_HEDGE = "hedge_overlap"
_VIEW = "view_maintenance"
_COMPACTION = "compaction_interference"
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

    @property
    def dominant(self) -> str:
        """The segment class that owns the largest slice of the trace."""
        shares = self.shares
        return max(SEGMENT_CLASSES, key=lambda cls: shares[cls])

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

    def payload(self) -> Dict[str, object]:
        return {
            "query_class": self.query_class,
            "root_name": self.root_name,
            "start": self.start,
            "end": self.end,
            "duration_seconds": self.duration_seconds,
            "segments_seconds": dict(self.segments),
            "shares": self.shares,
            "dominant": self.dominant,
        }


def _split_rpc(span: Span, lo: float, hi: float, segments: Dict[str, float]) -> None:
    """Partition one rpc span's window into queue / hedge / service time.

    When the sweep hands us only part of the span (an overlap was resolved
    to a sibling), the split is scaled proportionally — attribute shapes
    are a property of the whole RPC, not of where it was cut.
    """
    window = hi - lo
    if window <= 0.0:
        return
    duration = span.end - span.start if span.end is not None else 0.0
    scale = window / duration if duration > 0.0 else 0.0
    attrs = span.attributes
    if (
        "queue_wait_seconds" not in attrs
        and "hedged" not in attrs
        and "compaction_stall_seconds" not in attrs
    ):
        # Nothing carved out (the common shape outside serving mode): the
        # general path below would add exactly this, and zeros elsewhere.
        segments[_RPC] += duration * scale
        return
    queue = attrs.get("queue_wait_seconds")
    queue = float(queue) if isinstance(queue, (int, float)) else 0.0
    queue = min(max(queue, 0.0), duration)
    hedge = 0.0
    if attrs.get("hedged"):
        delay = attrs.get("hedge_delay_seconds")
        if isinstance(delay, (int, float)):
            # Past the hedge delay two requests were in flight; that tail
            # is overlap the hedge bought, not extra service demand.
            hedge = max(0.0, duration - float(delay))
    stall = attrs.get("compaction_stall_seconds")
    stall = float(stall) if isinstance(stall, (int, float)) else 0.0
    stall = max(stall, 0.0)
    # Clamp the carve-outs so they never exceed the span itself.
    overhead = queue + hedge + stall
    if overhead > duration and overhead > 0.0:
        shrink = duration / overhead
        queue *= shrink
        hedge *= shrink
        stall *= shrink
    segments[_QUEUE] += queue * scale
    segments[_HEDGE] += hedge * scale
    segments[_COMPACTION] += stall * scale
    segments[_RPC] += (duration - queue - hedge - stall) * scale


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
                _sweep(children, lo, hi, segments)
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


def _sweep(
    children: List[Span], lo: float, hi: float, segments: Dict[str, float]
) -> None:
    """Attribute ``[lo, hi]`` among children that overlap (gather branches,
    a hedge twin): each elementary interval goes to the child extending
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
    total_seconds: float
    #: Time-weighted mean share per segment class.
    mean_shares: Dict[str, float]
    #: Share per segment class over the slowest retained traces only.
    tail_shares: Dict[str, float]
    #: Traces in the tail sample.
    tail_traces: int
    #: Duration of the slowest observed trace.
    max_seconds: float

    @property
    def dominant(self) -> str:
        return max(SEGMENT_CLASSES, key=lambda cls: self.mean_shares[cls])

    @property
    def tail_dominant(self) -> str:
        """What the slow tail of this class spends its time on."""
        return max(SEGMENT_CLASSES, key=lambda cls: self.tail_shares[cls])

    def describe(self) -> str:
        return (
            f"{self.query_class!r}: {self.traces} traces, tail dominated by "
            f"{self.tail_dominant} "
            f"({self.tail_shares[self.tail_dominant] * 100.0:.1f}% of the "
            f"{self.tail_traces} slowest), overall {self.dominant} "
            f"{self.mean_shares[self.dominant] * 100.0:.1f}%"
        )

    def payload(self) -> Dict[str, object]:
        return {
            "query_class": self.query_class,
            "traces": self.traces,
            "total_seconds": self.total_seconds,
            "max_seconds": self.max_seconds,
            "mean_shares": dict(self.mean_shares),
            "tail_shares": dict(self.tail_shares),
            "tail_traces": self.tail_traces,
            "dominant": self.dominant,
            "tail_dominant": self.tail_dominant,
        }


class _ClassAccumulator:
    __slots__ = ("count", "total_seconds", "max_seconds", "segment_totals", "slowest", "_seq")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.segment_totals = {cls: 0.0 for cls in SEGMENT_CLASSES}
        #: Min-heap of (duration, seq, segments) keeping the top-k slowest.
        self.slowest: List[Tuple[float, int, Dict[str, float]]] = []
        self._seq = 0


#: Slowest traces an aggregated query class keeps, and how many classes
#: the aggregator tracks.
TAIL_K = 16
MAX_CLASSES = 64


class CriticalPathAggregator:
    """Folds per-trace breakdowns into per-query-class profiles.

    State is bounded: at most :data:`MAX_CLASSES` query classes, each
    keeping running segment totals plus the :data:`TAIL_K` slowest traces'
    segment dicts (the "p99 is dominated by X" sample).  Classes turned
    away by the cap are counted in :attr:`dropped_classes` — no silent loss.
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
        duration = breakdown.end - breakdown.start
        state.count += 1
        state.total_seconds += duration
        if duration > state.max_seconds:
            state.max_seconds = duration
        totals = state.segment_totals
        for cls, seconds in breakdown.segments.items():
            if seconds:
                totals[cls] += seconds
        state._seq += 1
        slowest = state.slowest
        if len(slowest) < TAIL_K:
            keep = heapq.heappush
        elif duration > slowest[0][0]:
            keep = heapq.heapreplace
        else:
            return
        # The segment dict is copied only for an entry the tail keeps.
        keep(slowest, (duration, state._seq, dict(breakdown.segments)))

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
        profiles: List[BreakdownProfile] = []
        for query_class in sorted(self._classes):
            state = self._classes[query_class]
            total = state.total_seconds
            mean = self._mean_shares(state)
            tail_total = sum(entry[0] for entry in state.slowest)
            if tail_total > 0.0:
                tail = {
                    cls: sum(entry[2][cls] for entry in state.slowest) / tail_total
                    for cls in SEGMENT_CLASSES
                }
            else:
                tail = dict(mean)
            profiles.append(
                BreakdownProfile(
                    query_class=query_class,
                    traces=state.count,
                    total_seconds=total,
                    mean_shares=mean,
                    tail_shares=tail,
                    tail_traces=len(state.slowest),
                    max_seconds=state.max_seconds,
                )
            )
        return profiles

    def profile(self, query_class: str) -> Optional[BreakdownProfile]:
        for candidate in self.profiles():
            if candidate.query_class == query_class:
                return candidate
        return None

    def describe(self) -> str:
        lines = [profile.describe() for profile in self.profiles()]
        return "\n".join(lines) if lines else "no traces analyzed yet"

    def payload(self) -> Dict[str, object]:
        return {
            "observed": self.observed,
            "dropped_classes": self.dropped_classes,
            "profiles": [profile.payload() for profile in self.profiles()],
        }

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def scrape(self, store, now: float) -> None:
        """Record running per-class segment shares into a time-series store.

        Series: ``forensics.segment_share{query_class=..., segment=...}``
        (time-weighted running mean) — the feed behind the dashboard's
        LATENCY BREAKDOWN section.
        """
        # Mean shares only: the tail profile is a report-time question.
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
