"""Unit tests for the metrics registry and bounded histograms."""

from __future__ import annotations

import random

import pytest

from repro.errors import HistogramMergeError
from repro.obs.metrics import BoundedHistogram, MetricsRegistry


class TestCounters:
    def test_add_and_value(self):
        registry = MetricsRegistry()
        assert registry.value("client.operations") == 0
        registry.add("client.operations")
        registry.add("client.operations", 4)
        assert registry.value("client.operations") == 5

    def test_add_many_is_add_per_pair_zeros_included(self):
        batched, single = MetricsRegistry(), MetricsRegistry()
        pairs = [("node.gets", 1), ("node.keys_filtered", 0),
                 ("node.total_latency_seconds", 0.25), ("node.gets", 2)]
        batched.add_many(pairs)
        for name, amount in pairs:
            single.add(name, amount)
        assert batched.counters() == single.counters()
        # A counter touched with 0 exists afterwards (reports enumerate
        # names), in first-touch order.
        assert list(batched.counters()) == [
            "node.gets", "node.keys_filtered", "node.total_latency_seconds"
        ]

    def test_counters_returns_copy(self):
        registry = MetricsRegistry()
        registry.add("a", 1)
        counters = registry.counters()
        counters["a"] = 99
        assert registry.value("a") == 1

    def test_iter_sorted(self):
        registry = MetricsRegistry()
        registry.add("b", 2)
        registry.add("a", 1)
        assert list(registry) == [("a", 1), ("b", 2)]


class TestWindows:
    def test_snapshot_is_independent(self):
        registry = MetricsRegistry()
        registry.add("x", 3)
        snap = registry.snapshot()
        registry.add("x", 2)
        assert snap.value("x") == 3
        assert registry.value("x") == 5

    def test_delta_over_union_of_names(self):
        registry = MetricsRegistry()
        registry.add("old", 1)
        earlier = registry.snapshot()
        registry.add("old", 2)
        registry.add("new", 5)
        delta = registry.delta(earlier)
        # Names that appeared after the snapshot still difference correctly.
        assert delta.value("old") == 2
        assert delta.value("new") == 5

    def test_merge_adds_counters(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.add("shared", 1)
        b.add("shared", 2)
        b.add("only_b", 3)
        a.merge(b)
        assert a.value("shared") == 3
        assert a.value("only_b") == 3

    def test_reset(self):
        registry = MetricsRegistry()
        registry.add("x", 1)
        registry.observe("h", 0.5)
        registry.reset()
        assert registry.value("x") == 0
        assert registry.histogram("h") is None


class TestBoundedHistogram:
    def test_small_streams_keep_everything(self):
        histogram = BoundedHistogram(capacity=8)
        for value in [3.0, 1.0, 2.0]:
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.percentile(1.0) == 3.0

    def test_capacity_bounds_memory(self):
        histogram = BoundedHistogram(capacity=16)
        for i in range(10_000):
            histogram.observe(float(i))
        assert len(histogram.samples) == 16
        assert histogram.count == 10_000

    def test_reservoir_stays_representative(self):
        histogram = BoundedHistogram(capacity=128)
        for i in range(20_000):
            histogram.observe(float(i))
        # The retained median of a uniform ramp should land near the middle.
        assert 4_000 < histogram.percentile(0.5) < 16_000

    def test_percentile_of_small_sample(self):
        histogram = BoundedHistogram()
        for value in (0.01, 0.02, 0.03, 0.04, 0.05):
            histogram.observe(value)
        assert histogram.percentile(0.5) == pytest.approx(0.03)
        assert histogram.percentile(1.0) == pytest.approx(0.05)

    def test_percentile_requires_samples_and_valid_fraction(self):
        histogram = BoundedHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(0.5)
        histogram.observe(0.01)
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_eviction_stream_is_the_fixed_seed_stream(self):
        """Algorithm R over ``Random(0x5EED)`` by default, so every run of
        a simulation retains the same samples."""
        histogram = BoundedHistogram(capacity=8)
        for i in range(8):
            histogram.observe(float(i))
        expected = [float(i) for i in range(8)]
        rng = random.Random(0x5EED)
        for seen in range(9, 209):
            histogram.observe(float(seen))
            slot = rng.randrange(seen)
            if slot < 8:
                expected[slot] = float(seen)
        assert histogram.samples == expected
        assert histogram.count == 208

    def test_copy_preserves_rng_state(self):
        histogram = BoundedHistogram(capacity=4)
        for i in range(100):
            histogram.observe(float(i))
        clone = histogram.copy()
        histogram.observe(123.0)
        clone.observe(123.0)
        assert histogram.samples == clone.samples

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedHistogram(capacity=0)

    def test_registry_observe(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.25, capacity=4)
        registry.observe("lat", 0.75)
        histogram = registry.histogram("lat")
        assert histogram is not None
        assert histogram.count == 2
        snap = registry.snapshot()
        registry.observe("lat", 0.5)
        assert snap.histogram("lat").count == 2


class TestHistogramMerge:
    """Regression tests for merging reservoirs of differing shapes.

    The fleet roll-up path merges per-node histograms whose capacities and
    sample counts differ; an earlier implementation concatenated raw sample
    lists, which skewed quantiles toward the smaller-capacity side and
    could overrun the destination's capacity.
    """

    def test_merge_small_into_large(self):
        a = BoundedHistogram(capacity=128)
        b = BoundedHistogram(capacity=8)
        for _ in range(100):
            a.observe(1.0)
        for _ in range(300):
            b.observe(3.0)
        a.merge(b)
        assert a.count == 400
        assert a.total == pytest.approx(100 * 1.0 + 300 * 3.0)
        assert len(a.samples) <= a.capacity
        assert set(a.samples) <= {1.0, 3.0}

    def test_merge_large_into_small_rebins(self):
        # The destination's capacity bounds the result even when the
        # operand retains far more samples.
        small = BoundedHistogram(capacity=8)
        big = BoundedHistogram(capacity=512)
        for _ in range(100):
            small.observe(1.0)
        for _ in range(300):
            big.observe(3.0)
        small.merge(big)
        assert small.count == 400
        assert len(small.samples) == 8
        assert small.mean == pytest.approx(2.5)

    def test_merge_weights_by_observation_count(self):
        # 90% of the union's observations are 5.0: the merged reservoir
        # should be dominated by them even though both reservoirs retain
        # the same number of raw samples.
        a = BoundedHistogram(capacity=64)
        b = BoundedHistogram(capacity=64)
        for _ in range(9_000):
            a.observe(5.0)
        for _ in range(1_000):
            b.observe(1.0)
        a.merge(b)
        heavy = sum(1 for s in a.samples if s == 5.0)
        assert heavy / len(a.samples) > 0.7

    def test_merge_into_empty_adopts_subsample(self):
        empty = BoundedHistogram(capacity=4)
        full = BoundedHistogram(capacity=64)
        for i in range(50):
            full.observe(float(i))
        empty.merge(full)
        assert empty.count == 50
        assert len(empty.samples) == 4
        assert empty.total == full.total

    def test_merge_empty_operand_is_noop(self):
        a = BoundedHistogram(capacity=8)
        a.observe(2.0)
        a.merge(BoundedHistogram(capacity=8))
        assert a.count == 1
        assert a.samples == [2.0]

    def test_merge_is_deterministic(self):
        def build():
            a = BoundedHistogram(capacity=16)
            b = BoundedHistogram(capacity=16)
            for i in range(200):
                a.observe(float(i))
                b.observe(float(-i))
            a.merge(b)
            return a.samples

        assert build() == build()

    def test_merge_rejects_non_histogram(self):
        a = BoundedHistogram(capacity=8)
        with pytest.raises(HistogramMergeError, match="not BoundedHistogram"):
            a.merge([1.0, 2.0])

    def test_merge_rejects_inconsistent_operand(self):
        a = BoundedHistogram(capacity=8)
        bad = BoundedHistogram(capacity=8)
        bad.samples = [1.0, 2.0, 3.0]
        bad.count = 2  # claims fewer observations than it retains
        with pytest.raises(HistogramMergeError, match="retains 3 samples"):
            a.merge(bad)
        # And symmetrically when self is the inconsistent side.
        with pytest.raises(HistogramMergeError):
            bad.merge(a)

    def test_registry_merge_covers_all_metric_kinds(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.add("ops", 2)
        b.add("ops", 3)
        a.observe("lat", 1.0, capacity=8)
        b.observe("lat", 3.0, capacity=8)
        b.observe("only_b", 9.0)
        a.merge(b)
        assert a.value("ops") == 5
        assert a.histogram("lat").count == 2
        assert a.histogram("only_b").count == 1
