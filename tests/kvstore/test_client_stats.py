"""Tests for ``ClientStats``: snapshot/delta semantics."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, PiqlDatabase
from repro.kvstore.client import ClientStats


def stats_with(**counters: float) -> ClientStats:
    stats = ClientStats()
    for name, value in counters.items():
        stats.metrics.add(f"client.{name}", value)
    return stats


class TestSnapshotAndDelta:
    def test_snapshot_is_an_independent_copy(self):
        stats = stats_with(
            operations=3, keys_touched=7, rpcs=2, total_latency_seconds=0.5
        )
        snap = stats.snapshot()
        stats.metrics.add("client.operations", 7)
        assert stats.operations == 10
        assert snap.operations == 3
        assert snap.keys_touched == 7
        assert snap.rpcs == 2
        assert snap.total_latency_seconds == pytest.approx(0.5)

    def test_delta_subtracts_counters(self):
        earlier = stats_with(
            operations=2, keys_touched=5, rpcs=1, total_latency_seconds=0.1
        )
        later = stats_with(
            operations=7, keys_touched=11, rpcs=4, total_latency_seconds=0.35
        )
        diff = later.delta(earlier)
        assert diff.operations == 5
        assert diff.keys_touched == 6
        assert diff.rpcs == 3
        assert diff.total_latency_seconds == pytest.approx(0.25)

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


class TestLatencyAccounting:
    def test_client_records_latencies_automatically(self):
        """Each serial RPC accrues its latency once: the counter moves with
        the client's clock, one round trip per key."""
        db = PiqlDatabase.simulated(ClusterConfig(storage_nodes=2, seed=8))
        db.execute_ddl(
            "CREATE TABLE t (id INT, v VARCHAR(8), PRIMARY KEY (id))"
        )
        before = db.client.stats.snapshot()
        started = db.client.clock.now
        for i in range(20):
            db.insert("t", {"id": i, "v": "x"})
        for i in range(20):
            assert db.get("t", (i,)) is not None
        diff = db.client.stats.delta(before)
        assert diff.rpcs == 40
        assert diff.total_latency_seconds > 0.0
        assert diff.total_latency_seconds == pytest.approx(
            db.client.clock.now - started
        )
