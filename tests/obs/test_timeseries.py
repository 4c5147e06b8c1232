"""Unit tests for the fixed-memory telemetry time-series store."""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import TimeSeriesStore, make_labels


class TestBasics:
    def test_single_sample_round_trip(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=8)
        assert store.record("m", 3.0, t=2.4)
        points = store.points("m")
        assert len(points) == 1
        point = points[0]
        assert point.start_seconds == 2.0
        assert point.width_seconds == 1.0
        assert point.count == 1
        assert point.sum == point.min == point.max == point.last == 3.0

    def test_samples_fold_within_a_bucket(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=8)
        store.record("m", 1.0, t=5.1)
        store.record("m", 5.0, t=5.6)
        store.record("m", 3.0, t=5.9)
        (point,) = store.points("m")
        assert point.count == 3
        assert point.sum == 9.0
        assert point.mean == pytest.approx(3.0)
        assert point.min == 1.0
        assert point.max == 5.0
        assert point.last == 3.0  # arrival order, not value order

    def test_labels_make_distinct_series(self):
        store = TimeSeriesStore()
        store.record("node.up", 1.0, t=0.0, labels={"node": "a"})
        store.record("node.up", 0.0, t=0.0, labels={"node": "b"})
        assert store.latest_value("node.up", {"node": "a"}) == 1.0
        assert store.latest_value("node.up", {"node": "b"}) == 0.0
        assert store.label_sets("node.up") == [
            (("node", "a"),),
            (("node", "b"),),
        ]

    def test_label_order_is_canonical(self):
        assert make_labels({"b": 2, "a": 1}) == (("a", "1"), ("b", "2"))
        store = TimeSeriesStore()
        store.record("m", 1.0, t=0.0, labels={"x": "1", "y": "2"})
        store.record("m", 2.0, t=0.5, labels={"y": "2", "x": "1"})
        (point,) = store.points("m", {"x": "1", "y": "2"})
        assert point.count == 2


class TestEmptyWindows:
    def test_unknown_series_has_no_points(self):
        store = TimeSeriesStore()
        assert store.points("nope") == []
        assert store.latest("nope") is None
        assert store.latest_value("nope", default=-1.0) == -1.0

    def test_window_with_no_samples_is_empty(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=16)
        store.record("m", 1.0, t=1.0)
        store.record("m", 2.0, t=9.0)
        assert store.points("m", start=3.0, end=8.0) == []

    def test_counter_delta_over_empty_window_is_zero(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=16)
        store.record("total", 100.0, t=1.0)
        store.record("total", 100.0, t=9.0)
        # No scrape (and no increase) inside (3, 8].
        assert store.counter_delta("total", 3.0, 8.0) == 0.0
        # Window entirely before the first scrape.
        assert store.counter_delta("total", -5.0, 0.5) == 0.0

    def test_counter_delta_ignores_preexisting_total(self):
        # The first scrape sees a counter that is already at 1000; a window
        # opening before that scrape must not report the 1000 as fresh burn.
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=16)
        store.record("total", 1000.0, t=4.0)
        store.record("total", 1010.0, t=6.0)
        assert store.counter_delta("total", 0.0, 6.0) == pytest.approx(10.0)

    def test_counter_delta_normal_window(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=32)
        for t in range(12):
            store.record("total", float(t * 5), t=float(t))
        assert store.counter_delta("total", 3.0, 11.0) == pytest.approx(40.0)


class TestOutOfOrder:
    def test_late_sample_folds_into_its_bucket(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=16)
        store.record("m", 1.0, t=3.2)
        store.record("m", 9.0, t=8.0)
        assert store.record("m", 2.0, t=3.7)  # late, but bucket still live
        points = store.points("m")
        assert points[0].count == 2
        assert points[0].sum == 3.0
        assert store.dropped_samples == 0

    def test_sample_older_than_every_ring_is_dropped(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=4)
        # Every slot holds recent history: the ring covers 97..100.
        for t in range(80, 101):
            store.record("m", 1.0, t=float(t))
        assert not store.record("m", 2.0, t=1.0)
        assert store.dropped_samples == 1
        # The live data is untouched.
        assert all(p.min == 1.0 for p in store.points("m"))

    def test_late_sample_does_not_move_latest(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=8)
        store.record("m", 5.0, t=5.0)
        assert store.record("m", 3.0, t=3.0)  # late, still inside the ring
        # ``latest`` is the newest bucket, not the last sample to arrive.
        assert store.latest("m").start_seconds == 5.0
        assert store.latest_value("m") == 5.0

    def test_sample_before_time_zero_keeps_its_bucket(self):
        # t=-0.25 falls in bucket -1, which must not read as an empty slot.
        store = TimeSeriesStore(resolution_seconds=0.5, capacity=4)
        assert store.record("m", 1.0, t=-0.25)
        assert store.record("m", 2.0, t=-0.4)
        assert store.record("m", 7.0, t=-3.0)  # bucket -6: older, but its slot is empty
        assert [(p.start_seconds, p.count, p.last) for p in store.points("m")] == [
            (-3.0, 1, 7.0),
            (-0.5, 2, 2.0),
        ]
        assert store.latest("m").start_seconds == -0.5
        store.record("m", 10.0, t=0.0)
        assert store.counter_delta("m", -0.3, 0.1) == 8.0  # 10 at t=0 minus 2
        assert store.dropped_samples == 0


class TestWraparound:
    def test_total_memory_is_bounded(self):
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=8)
        for t in range(100_000):
            store.record("m", float(t), t=float(t))
        points = store.points("m")
        # The ring keeps the newest 8 seconds; everything older is gone.
        assert [p.start_seconds for p in points] == [
            float(t) for t in range(99_992, 100_000)
        ]
        assert store.latest("m").last == 99_999.0


class TestCardinalityCap:
    def test_series_beyond_cap_are_dropped_and_counted(self):
        store = TimeSeriesStore(max_series=2)
        assert store.record("m", 1.0, t=0.0, labels={"node": "a"})
        assert store.record("m", 1.0, t=0.0, labels={"node": "b"})
        assert not store.record("m", 1.0, t=0.0, labels={"node": "c"})
        assert not store.record("other", 1.0, t=0.0)
        assert len(store) == 2
        assert store.dropped_series == 2
        # Existing series still accept samples.
        assert store.record("m", 2.0, t=1.0, labels={"node": "a"})

    def test_high_cardinality_label_cannot_grow_heap(self):
        store = TimeSeriesStore(max_series=16)
        for user in range(1000):
            store.record("per_user", 1.0, t=0.0, labels={"user": str(user)})
        assert len(store) == 16
        assert store.dropped_series == 1000 - 16


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution_seconds": 0.0},
            {"capacity": 1},
            {"max_series": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeriesStore(**kwargs)


def reference_counter_delta(store: TimeSeriesStore, name: str, start: float, end: float) -> float:
    """``counter_delta`` read off ``points()``: the definition the
    ring-indexed lookups must agree with."""
    points = store.points(name)

    def last_at_or_before(t: float) -> Optional[float]:
        candidates = [p for p in points if p.start_seconds <= t]
        return candidates[-1].last if candidates else None

    value_end = last_at_or_before(end)
    if value_end is None:
        return 0.0
    value_start = last_at_or_before(start)
    if value_start is None:
        value_start = points[0].last
    return max(0.0, value_end - value_start)


#: A history is a list of (time step, value step) pairs: the clock mostly
#: creeps forward by less than a bucket, sometimes jumps over many buckets
#: (a gap, or far enough to wrap the ring), and
#: sometimes steps back (a sample from a slower client clock).
_time_step = st.one_of(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=2.0, max_value=40.0),
    st.floats(min_value=-12.0, max_value=0.0),
    st.sampled_from([0.0, 1.0, 0.5, 4.0, 8.0, 64.0, 300.0]),
)
_history = st.lists(
    st.tuples(_time_step, st.integers(min_value=0, max_value=9)),
    min_size=1,
    max_size=120,
)


class TestCounterDeltaAgainstPoints:
    @settings(max_examples=300, deadline=None)
    @given(
        history=_history,
        resolution=st.sampled_from([1.0, 0.5, 0.1, 0.3]),
        capacity=st.integers(min_value=2, max_value=6),
        windows=st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=400.0),
                st.floats(min_value=0.0, max_value=80.0),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_ring_lookup_equals_reference(
        self, history, resolution, capacity, windows
    ):
        store = TimeSeriesStore(resolution_seconds=resolution, capacity=capacity)
        t, value = 0.0, 0.0
        probes: List[Tuple[float, float]] = list(windows)
        for time_step, value_step in history:
            t = max(0.0, t + time_step)
            value += value_step
            store.record("total", value, t=t)
            # Trailing windows at the sample, as the burn-rate alerter asks,
            # and an ``end`` beyond the newest bucket.
            probes.append((t - 3.0 * resolution, 3.0 * resolution))
            probes.append((t - 50.0, 50.0 + 7.0 * resolution))
            for start, length in probes[-10:]:
                assert store.counter_delta(
                    "total", start, start + length
                ) == reference_counter_delta(store, "total", start, start + length)
        for start, length in probes:
            assert store.counter_delta(
                "total", start, start + length
            ) == reference_counter_delta(store, "total", start, start + length)

    def test_bucket_left_behind_by_a_gap_is_still_found(self):
        # Buckets 0..3 fill a 4-slot ring, then bucket 9 takes slot 1 only:
        # 0, 2 and 3 stay, more than a ring's length behind the newest.
        store = TimeSeriesStore(resolution_seconds=1.0, capacity=4)
        for t in range(4):
            store.record("total", float(10 * t), t=float(t))
        store.record("total", 100.0, t=9.0)
        assert [p.start_seconds for p in store.points("total")] == [0.0, 2.0, 3.0, 9.0]
        assert store.counter_delta("total", 1.5, 8.0) == 30.0  # 30 at t=3 minus 0 at t=0
        assert store.counter_delta("total", 8.0, 9.0) == 70.0
        assert store.counter_delta("total", -1.0, 9.0) == 100.0
