"""A fixed-memory time-series store: ring buffers with tumbling downsampling.

The telemetry collector samples dozens of fleet signals every scrape tick;
a naive append-only list per signal would grow without bound over a long
serving run.  This store keeps every series in **fixed memory**:

* samples land in tumbling buckets of ``resolution_seconds`` held in a ring
  of ``capacity`` slots, each bucket aggregating ``count/sum/min/max/last``;
* when the ring wraps, the evicted fine bucket is folded into the next
  coarser level (``resolution * downsample_factor``, same slot count), so
  old history survives at reduced resolution instead of vanishing — recent
  windows are sharp, the far past is a summary;
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
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    """One resolution level: ``capacity`` tumbling buckets in a ring.

    A slot keeps the newest bucket that ever mapped to it, so after a gap
    in the samples a slot can still hold a bucket more than ``capacity``
    buckets behind :attr:`newest`; the indexed lookups below allow for it.
    """

    __slots__ = ("width", "capacity", "bucket_ids", "aggs", "newest", "_oldest")

    _EMPTY = -1

    def __init__(self, width: float, capacity: int):
        self.width = width
        self.capacity = capacity
        # Absolute bucket index stored in each slot (-1 = empty).
        self.bucket_ids: List[int] = [self._EMPTY] * capacity
        # (count, sum, min, max, last) per slot.
        self.aggs: List[Optional[List[float]]] = [None] * capacity
        #: Largest bucket index held (-1 while the ring is empty).
        self.newest = self._EMPTY
        # Smallest bucket index held; ``None`` once an eviction may have
        # removed it (recomputed by the next :meth:`oldest`).
        self._oldest: Optional[int] = None

    def bucket_of(self, t: float) -> int:
        return int(t // self.width)

    def offer(self, t: float, agg: Sequence[float]) -> Tuple[bool, Optional[Tuple[int, List[float]]]]:
        """Fold an aggregate into the bucket containing ``t``.

        Returns ``(accepted, evicted)`` where ``evicted`` is the
        ``(bucket_id, agg)`` pushed out of the ring to make room (the store
        rolls it into the next coarser level).  ``accepted`` is False when
        the sample is older than the ring's horizon (the slot it maps to
        already holds a *newer* bucket).
        """
        bucket = int(t // self.width)
        slot = bucket % self.capacity
        held = self.bucket_ids[slot]
        evicted: Optional[Tuple[int, List[float]]] = None
        if held == bucket:
            self._merge(self.aggs[slot], agg)
            return True, None
        if held > bucket:
            return False, None  # older than everything this ring remembers
        if held != self._EMPTY:
            evicted = (held, self.aggs[slot])  # type: ignore[arg-type]
            self._oldest = None
        elif self.newest == self._EMPTY:
            self._oldest = bucket
        elif self._oldest is not None and bucket < self._oldest:
            self._oldest = bucket
        if bucket > self.newest:
            self.newest = bucket
        self.bucket_ids[slot] = bucket
        self.aggs[slot] = list(agg)
        return True, evicted

    def oldest(self) -> int:
        """Smallest bucket index held (the ring must not be empty)."""
        if self._oldest is None:
            self._oldest = min(
                bucket for bucket in self.bucket_ids if bucket != self._EMPTY
            )
        return self._oldest

    def last_at_or_before(
        self, t: float, horizon: Optional[float] = None
    ) -> Optional[List[float]]:
        """Aggregate of the newest bucket starting at or before ``t``.

        With ``horizon`` the bucket must also end at or before it — the
        rule by which :meth:`_Series.points` lets a coarser level speak
        only for the time before the finer levels' data.  The comparisons
        are the ones ``points()`` makes on ``start_seconds`` and
        ``end_seconds``, so the two agree bucket for bucket.
        """
        width = self.width
        bucket = self.bucket_of(t)
        while (bucket + 1) * width <= t:
            bucket += 1
        while bucket * width > t:
            bucket -= 1
        if horizon is not None:
            limit = self.bucket_of(horizon) - 1
            while (limit + 1) * width + width <= horizon:
                limit += 1
            while limit * width + width > horizon:
                limit -= 1
            if limit < bucket:
                bucket = limit
        if bucket > self.newest:
            bucket = self.newest
        capacity = self.capacity
        bucket_ids = self.bucket_ids
        # Walk back over gaps: every slot is passed once, and the first one
        # holding exactly the bucket asked of it holds the answer, because a
        # slot passed without a match holds either a newer bucket or one
        # more than ``capacity`` behind the bucket asked of it.
        for candidate in range(bucket, max(bucket - capacity, self._EMPTY), -1):
            slot = candidate % capacity
            if bucket_ids[slot] == candidate:
                return self.aggs[slot]
        # Only a bucket left behind by a gap can remain.
        stale = max(
            (held for held in bucket_ids if self._EMPTY < held <= bucket),
            default=self._EMPTY,
        )
        return self.aggs[stale % capacity] if stale != self._EMPTY else None

    @staticmethod
    def _merge(into: Optional[List[float]], agg: Sequence[float]) -> None:
        assert into is not None
        into[0] += agg[0]
        into[1] += agg[1]
        into[2] = min(into[2], agg[2])
        into[3] = max(into[3], agg[3])
        into[4] = agg[4]  # "last" follows arrival order within a bucket

    def points(self) -> List[TimeSeriesPoint]:
        """Every populated bucket, oldest first."""
        filled = [
            (bucket, self.aggs[slot])
            for slot, bucket in enumerate(self.bucket_ids)
            if bucket != self._EMPTY
        ]
        filled.sort(key=lambda entry: entry[0])
        return [
            TimeSeriesPoint(
                start_seconds=bucket * self.width,
                width_seconds=self.width,
                count=int(agg[0]),
                sum=agg[1],
                min=agg[2],
                max=agg[3],
                last=agg[4],
            )
            for bucket, agg in filled
            if agg is not None
        ]


class _Series:
    """One metric+labels series: a stack of resolution levels."""

    __slots__ = ("rings",)

    def __init__(self, resolution: float, capacity: int, levels: int, factor: int):
        self.rings = [
            _Ring(resolution * (factor ** level), capacity)
            for level in range(levels)
        ]

    def offer(self, level: int, t: float, agg: Sequence[float]) -> bool:
        """Fold ``agg`` into ``level`` (a fresh sample enters at level 0)."""
        if level >= len(self.rings):
            return False  # fell off the coarsest level: history truly expired
        accepted, evicted = self.rings[level].offer(t, agg)
        if evicted is not None:
            bucket_id, old_agg = evicted
            self.offer(
                level + 1, bucket_id * self.rings[level].width, old_agg
            )
        if not accepted:
            # Too old for this ring — maybe a coarser level still covers it.
            return self.offer(level + 1, t, agg)
        return True

    def points(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> List[TimeSeriesPoint]:
        """Buckets overlapping ``[start, end)``, finest-available first.

        Fine levels win where they still have data; coarser levels fill in
        the older range the fine ring has already recycled.
        """
        chosen: List[TimeSeriesPoint] = []
        fine_horizon: Optional[float] = None
        # Per level: take all fine points, then only those coarser points
        # ending at/before the finest data already chosen.
        for ring in self.rings:
            ring_points = ring.points()
            if not ring_points:
                continue
            if fine_horizon is None:
                chosen.extend(ring_points)
            else:
                chosen.extend(
                    p for p in ring_points if p.end_seconds <= fine_horizon
                )
            level_start = min(p.start_seconds for p in ring_points)
            fine_horizon = (
                level_start
                if fine_horizon is None
                else min(fine_horizon, level_start)
            )
        chosen.sort(key=lambda p: (p.start_seconds, p.width_seconds))
        if start is not None:
            chosen = [p for p in chosen if p.end_seconds > start]
        if end is not None:
            chosen = [p for p in chosen if p.start_seconds < end]
        return chosen

    def latest(self) -> Optional[TimeSeriesPoint]:
        for ring in self.rings:
            ring_points = ring.points()
            if ring_points:
                return ring_points[-1]
        return None

    # The two lookups below answer from the rings' indexes what
    # ``points()`` would answer from a sorted copy of every bucket: the
    # levels hold disjoint stretches of time, finest newest, and a coarser
    # bucket counts only if it ends by the start of all finer data.
    def last_at_or_before(self, t: float) -> Optional[float]:
        """``last`` of the newest bucket of ``points()`` starting by ``t``."""
        horizon: Optional[float] = None
        for ring in self.rings:
            if ring.newest == ring._EMPTY:
                continue
            agg = ring.last_at_or_before(t, horizon)
            if agg is not None:
                return agg[4]
            level_start = ring.oldest() * ring.width
            if horizon is None or level_start < horizon:
                horizon = level_start
        return None

    def first(self) -> Optional[float]:
        """``last`` of the oldest bucket of ``points()``."""
        horizon: Optional[float] = None
        value: Optional[float] = None
        for ring in self.rings:
            if ring.newest == ring._EMPTY:
                continue
            oldest = ring.oldest()
            level_start = oldest * ring.width
            if horizon is None or level_start + ring.width <= horizon:
                value = ring.aggs[oldest % ring.capacity][4]  # type: ignore[index]
            if horizon is None or level_start < horizon:
                horizon = level_start
        return value


class TimeSeriesStore:
    """Cluster-wide fixed-memory time-series, keyed by name + labels.

    Parameters
    ----------
    resolution_seconds:
        Width of a finest-level tumbling bucket.
    capacity:
        Buckets retained per resolution level (per series).
    levels:
        Number of resolution levels (each ``downsample_factor`` coarser).
    downsample_factor:
        Width multiplier between adjacent levels.
    max_series:
        Hard cap on distinct (name, labels) series; further series are
        dropped and counted in :attr:`dropped_series`.
    """

    def __init__(
        self,
        resolution_seconds: float = 1.0,
        capacity: int = 128,
        levels: int = 3,
        downsample_factor: int = 8,
        max_series: int = 512,
    ):
        if resolution_seconds <= 0:
            raise ValueError("resolution_seconds must be positive")
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        if levels < 1:
            raise ValueError("need at least one resolution level")
        if downsample_factor < 2:
            raise ValueError("downsample_factor must be at least 2")
        if max_series < 1:
            raise ValueError("max_series must be positive")
        self.resolution_seconds = resolution_seconds
        self.capacity = capacity
        self.levels = levels
        self.downsample_factor = downsample_factor
        self.max_series = max_series
        self._series: Dict[Tuple[str, Labels], _Series] = {}
        #: Samples rejected because they were older than every ring horizon.
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
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                self.dropped_series += 1
                return False
            series = _Series(
                self.resolution_seconds,
                self.capacity,
                self.levels,
                self.downsample_factor,
            )
            self._series[key] = series
        if not series.offer(0, t, (1.0, value, value, value, value)):
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
        series = self._series.get((name, make_labels(labels)))
        if series is None:
            return []
        return series.points(start, end)

    def latest(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Optional[TimeSeriesPoint]:
        series = self._series.get((name, make_labels(labels)))
        return series.latest() if series is not None else None

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
        series = self._series.get((name, make_labels(None)))
        if series is None:
            return 0.0
        value_end = series.last_at_or_before(end)
        if value_end is None:
            return 0.0
        value_start = series.last_at_or_before(start)
        if value_start is None:
            # Window opens before the first scrape: treat the series as
            # starting from its earliest observed value, not from zero, so
            # pre-existing totals are not misread as fresh burn.
            value_start = series.first()
        return max(0.0, value_end - value_start)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeriesStore({len(self._series)} series, "
            f"res={self.resolution_seconds}s x{self.capacity} "
            f"x{self.levels} levels)"
        )
