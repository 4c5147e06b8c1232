"""A fixed-memory time-series store: one ring of tumbling buckets per series.

The telemetry collector samples dozens of fleet signals every scrape tick;
a naive append-only list per signal would grow without bound over a long
serving run.  This store keeps every series in **fixed memory**:

* samples land in tumbling buckets of ``resolution_seconds`` held in a ring
  of ``capacity`` slots, each bucket aggregating ``count/sum/min/max/last``;
  a series remembers the last ``capacity × resolution_seconds`` seconds
  (64 s at the serving tier's 0.5 s scrape), and a bucket the ring wraps
  over is gone;
* series are keyed by metric name plus a label set (``node="3"``), with a
  hard cap on total series so an accidental high-cardinality label (a user
  id, say) cannot eat the heap — series beyond the cap are counted and
  dropped, never stored.

Out-of-order samples (the serving tier charges work on many private client
clocks) fold into their own bucket while that bucket is still in the ring;
samples older than the ring's horizon are dropped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

#: Label sets are stored as sorted ``(key, value)`` tuples so equal label
#: dicts always produce the same series key.
Labels = Tuple[Tuple[str, str], ...]


def make_labels(labels: Union[None, Labels, Dict[str, object]] = None) -> Labels:
    """Normalise a label dict into the canonical tuple form.

    A tuple is taken to be canonical already (the result of an earlier
    call), so a caller recording many samples under one label set can
    normalise it once.
    """
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class TimeSeriesPoint:
    """One aggregated bucket of a series."""

    start_seconds: float
    width_seconds: float
    count: int
    sum: float
    min: float
    max: float
    last: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def end_seconds(self) -> float:
        return self.start_seconds + self.width_seconds


class _Ring:
    """One series: ``capacity`` tumbling buckets of ``width`` seconds.

    A slot keeps the newest bucket that ever mapped to it, so after a gap
    in the samples a slot can still hold a bucket more than ``capacity``
    buckets behind :attr:`newest`; the indexed lookups below allow for it.
    """

    __slots__ = ("width", "capacity", "bucket_ids", "aggs", "newest")

    #: Marks an empty slot; below every bucket index, negative ones included
    #: (a sample before time zero falls in bucket -1).
    _EMPTY = float("-inf")

    def __init__(self, width: float, capacity: int):
        self.width = width
        self.capacity = capacity
        # Absolute bucket index stored in each slot (or ``_EMPTY``).
        self.bucket_ids: List[float] = [self._EMPTY] * capacity
        # [count, sum, min, max, last] per slot.
        self.aggs: List[Optional[List[float]]] = [None] * capacity
        #: Largest bucket index held (``_EMPTY`` while the ring is empty).
        self.newest = self._EMPTY

    def offer(self, t: float, value: float) -> bool:
        """Fold a sample into the bucket containing ``t``.

        Returns False when the sample is older than the ring's horizon (the
        slot it maps to already holds a *newer* bucket).
        """
        bucket = int(t // self.width)
        slot = bucket % self.capacity
        held = self.bucket_ids[slot]
        if held == bucket:
            agg = self.aggs[slot]
            assert agg is not None
            agg[0] += 1.0
            agg[1] += value
            agg[2] = min(agg[2], value)
            agg[3] = max(agg[3], value)
            agg[4] = value  # "last" follows arrival order within a bucket
            return True
        if held > bucket:
            return False  # older than everything this ring remembers
        if bucket > self.newest:
            self.newest = bucket
        self.bucket_ids[slot] = bucket
        self.aggs[slot] = [1.0, value, value, value, value]
        return True

    def oldest_last(self) -> float:
        """``last`` of the oldest bucket held (the ring must not be empty)."""
        oldest = min(bucket for bucket in self.bucket_ids if bucket != self._EMPTY)
        return self.aggs[oldest % self.capacity][4]  # type: ignore[index]

    def last_at_or_before(self, t: float) -> Optional[float]:
        """``last`` of the newest bucket starting at or before ``t``.

        The comparisons are the ones :meth:`points` makes on
        ``start_seconds``, so the two agree bucket for bucket.
        """
        width = self.width
        bucket = int(t // width)
        while (bucket + 1) * width <= t:
            bucket += 1
        while bucket * width > t:
            bucket -= 1
        if bucket > self.newest:
            bucket = self.newest
        capacity = self.capacity
        bucket_ids = self.bucket_ids
        # Walk back over gaps: every slot is passed once, and the first one
        # holding exactly the bucket asked of it holds the answer, because a
        # slot passed without a match holds either a newer bucket or one
        # more than ``capacity`` behind the bucket asked of it.
        for candidate in range(bucket, bucket - capacity, -1):
            slot = candidate % capacity
            if bucket_ids[slot] == candidate:
                return self.aggs[slot][4]  # type: ignore[index]
        # Only a bucket left behind by a gap can remain.
        stale = max(
            (held for held in bucket_ids if self._EMPTY < held <= bucket),
            default=self._EMPTY,
        )
        if stale == self._EMPTY:
            return None
        return self.aggs[stale % capacity][4]  # type: ignore[index]

    def point(self, bucket: int) -> TimeSeriesPoint:
        agg = self.aggs[bucket % self.capacity]
        assert agg is not None
        return TimeSeriesPoint(
            start_seconds=bucket * self.width,
            width_seconds=self.width,
            count=int(agg[0]),
            sum=agg[1],
            min=agg[2],
            max=agg[3],
            last=agg[4],
        )

    def points(self) -> List[TimeSeriesPoint]:
        """Every populated bucket, oldest first."""
        return [
            self.point(bucket)
            for bucket in sorted(self.bucket_ids)
            if bucket != self._EMPTY
        ]


class TimeSeriesStore:
    """Cluster-wide fixed-memory time-series, keyed by name + labels.

    Parameters
    ----------
    resolution_seconds:
        Width of a tumbling bucket.
    capacity:
        Buckets retained per series.
    max_series:
        Hard cap on distinct (name, labels) series; further series are
        dropped and counted in :attr:`dropped_series`.
    """

    def __init__(
        self,
        resolution_seconds: float = 1.0,
        capacity: int = 128,
        max_series: int = 512,
    ):
        if resolution_seconds <= 0:
            raise ValueError("resolution_seconds must be positive")
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        if max_series < 1:
            raise ValueError("max_series must be positive")
        self.resolution_seconds = resolution_seconds
        self.capacity = capacity
        self.max_series = max_series
        self._series: Dict[Tuple[str, Labels], _Ring] = {}
        #: Samples rejected because they were older than their ring.
        self.dropped_samples = 0
        #: Distinct series turned away by the cardinality cap.
        self.dropped_series = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        value: float,
        t: float,
        labels: Union[None, Labels, Dict[str, object]] = None,
    ) -> bool:
        """Record one sample; returns False when it was dropped."""
        key = (name, labels if type(labels) is tuple else make_labels(labels))
        ring = self._series.get(key)
        if ring is None:
            if len(self._series) >= self.max_series:
                self.dropped_series += 1
                return False
            ring = _Ring(self.resolution_seconds, self.capacity)
            self._series[key] = ring
        if not ring.offer(t, value):
            self.dropped_samples += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def series_keys(self) -> List[Tuple[str, Labels]]:
        """Every stored ``(name, labels)`` pair, sorted."""
        return sorted(self._series)

    def names(self) -> List[str]:
        return sorted({name for name, _ in self._series})

    def label_sets(self, name: str) -> List[Labels]:
        return sorted(
            labels for series_name, labels in self._series if series_name == name
        )

    def points(
        self,
        name: str,
        labels: Optional[Dict[str, object]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[TimeSeriesPoint]:
        """Buckets of one series overlapping ``[start, end)``, oldest first."""
        ring = self._series.get((name, make_labels(labels)))
        if ring is None:
            return []
        return [
            point
            for point in ring.points()
            if (start is None or point.end_seconds > start)
            and (end is None or point.start_seconds < end)
        ]

    def latest(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Optional[TimeSeriesPoint]:
        ring = self._series.get((name, make_labels(labels)))
        if ring is None:
            return None  # a ring exists only once a sample landed in it
        return ring.point(ring.newest)

    def latest_value(
        self,
        name: str,
        labels: Optional[Dict[str, object]] = None,
        default: float = 0.0,
    ) -> float:
        point = self.latest(name, labels)
        return point.last if point is not None else default

    def counter_delta(self, name: str, start: float, end: float) -> float:
        """Increase of a *cumulative* counter series over ``(start, end]``.

        The series holds scraped cumulative values; the delta is the last
        value at/before ``end`` minus the last value at/before ``start``
        (zero when the window precedes all data).  Robust to empty windows:
        a window with no scrape inside it reports zero increase.  The
        cumulative counters read this way are unlabelled series.
        """
        ring = self._series.get((name, make_labels(None)))
        if ring is None:
            return 0.0
        value_end = ring.last_at_or_before(end)
        if value_end is None:
            return 0.0
        value_start = ring.last_at_or_before(start)
        if value_start is None:
            # Window opens before the first scrape: treat the series as
            # starting from its earliest observed value, not from zero, so
            # pre-existing totals are not misread as fresh burn.
            value_start = ring.oldest_last()
        return max(0.0, value_end - value_start)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeriesStore({len(self._series)} series, "
            f"res={self.resolution_seconds}s x{self.capacity})"
        )
