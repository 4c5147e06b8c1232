"""Tests for ``ClientStats``: snapshot/delta semantics and the reservoir."""

from __future__ import annotations

import random

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.kvstore.client import ClientStats


class TestSnapshotAndDelta:
    def test_snapshot_is_an_independent_copy(self):
        stats = ClientStats()
        stats.operations = 3
        stats.keys_touched = 7
        stats.rpcs = 2
        stats.total_latency_seconds = 0.5
        stats.record_latency(0.25)
        snap = stats.snapshot()
        stats.operations = 10
        stats.record_latency(0.75)
        assert snap.operations == 3
        assert snap.keys_touched == 7
        assert snap.rpcs == 2
        assert snap.total_latency_seconds == pytest.approx(0.5)
        assert snap.latency_samples == [0.25]
        assert snap.samples_seen == 1

    def test_delta_subtracts_counters(self):
        earlier = ClientStats(
            operations=2, keys_touched=5, rpcs=1, total_latency_seconds=0.1
        )
        later = ClientStats(
            operations=7, keys_touched=11, rpcs=4, total_latency_seconds=0.35
        )
        diff = later.delta(earlier)
        assert diff.operations == 5
        assert diff.keys_touched == 6
        assert diff.rpcs == 3
        assert diff.total_latency_seconds == pytest.approx(0.25)
        # The reservoir is a sample, not a sum: deltas start empty.
        assert diff.latency_samples == []

    def test_delta_of_snapshots_tracks_live_traffic(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=8))
        db.execute_ddl(
            "CREATE TABLE t (id INT, v VARCHAR(8), PRIMARY KEY (id))"
        )
        before = db.client.stats.snapshot()
        db.insert("t", {"id": 1, "v": "a"})
        db.insert("t", {"id": 2, "v": "b"})
        diff = db.client.stats.snapshot().delta(before)
        assert diff.operations > 0
        assert diff.rpcs > 0
        assert diff.total_latency_seconds > 0.0


class TestLatencyReservoir:
    def test_percentile_of_small_sample(self):
        stats = ClientStats()
        for value in (0.01, 0.02, 0.03, 0.04, 0.05):
            stats.record_latency(value)
        assert stats.percentile(0.5) == pytest.approx(0.03)
        assert stats.percentile(1.0) == pytest.approx(0.05)

    def test_percentile_requires_samples_and_valid_fraction(self):
        stats = ClientStats()
        with pytest.raises(ValueError):
            stats.percentile(0.5)
        stats.record_latency(0.01)
        with pytest.raises(ValueError):
            stats.percentile(0.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_reservoir_is_bounded(self):
        stats = ClientStats(reservoir_capacity=16)
        for i in range(1000):
            stats.record_latency(i * 0.001)
        assert len(stats.latency_samples) == 16
        assert stats.samples_seen == 1000

    def test_eviction_stream_is_the_fixed_seed_stream(self):
        """The RNG is built on the first eviction, not per instance — and
        still replays algorithm R over ``Random(0x5EED)`` exactly."""
        stats = ClientStats(reservoir_capacity=8)
        for i in range(8):
            stats.record_latency(float(i))
        assert stats._rng is None
        assert stats.snapshot()._rng is None
        expected = [float(i) for i in range(8)]
        rng = random.Random(0x5EED)
        for seen in range(9, 209):
            stats.record_latency(float(seen))
            slot = rng.randrange(seen)
            if slot < 8:
                expected[slot] = float(seen)
        assert stats.latency_samples == expected

    def test_reservoir_remains_representative(self):
        stats = ClientStats(reservoir_capacity=128)
        # Uniform 0..1: the sampled median should land near 0.5.
        for i in range(10_000):
            stats.record_latency((i % 1000) / 1000.0)
        assert 0.3 < stats.percentile(0.5) < 0.7

    def test_client_records_latencies_automatically(self):
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=8))
        db.execute_ddl(
            "CREATE TABLE t (id INT, v VARCHAR(8), PRIMARY KEY (id))"
        )
        for i in range(20):
            db.insert("t", {"id": i, "v": "x"})
        stats = db.client.stats
        assert stats.samples_seen > 0
        assert stats.percentile(0.99) >= stats.percentile(0.5) > 0.0
