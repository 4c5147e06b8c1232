"""Membership-view unavailability as breaker evidence.

The coordinator skips replicas it knows are down or unreachable, so the
quorum path produces no timeouts during a crash or partition — and the
client's circuit breakers would never learn anything was wrong.
``OpResult.unavailable_nodes`` names the preference-list replicas skipped
on membership grounds; the client feeds each sighting to its breaker
board as a per-node failure, which is what fences the node while it is
gone and lets half-open probes close the breaker after recovery.
"""

from __future__ import annotations

import pytest

from repro.kvstore import ClusterConfig, KeyValueCluster, StorageClient
from repro.resilience.breaker import FAILURE_THRESHOLD, BreakerBoard


def build_cluster() -> KeyValueCluster:
    cluster = KeyValueCluster(
        ClusterConfig(storage_nodes=4, replication=3, read_quorum=2,
                      write_quorum=2, seed=3)
    )
    cluster.create_namespace("data")
    for index in range(40):
        cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())
    return cluster


@pytest.fixture
def cluster() -> KeyValueCluster:
    return build_cluster()


def keys_replicated_on(cluster, node_id, count=5):
    """Some loaded keys whose preference list includes ``node_id``."""
    chosen = []
    for index in range(40):
        key = f"k{index:03d}".encode()
        prefs = cluster.replication.preference_list("data", key)
        if node_id in prefs:
            chosen.append(key)
        if len(chosen) >= count:
            break
    assert chosen, f"no key maps to node {node_id}"
    return chosen


class TestUnavailableNodes:
    def test_healthy_cluster_reports_none(self, cluster):
        result = cluster.get("data", b"k001")
        assert result.unavailable_nodes == ()

    def test_crashed_replica_is_named_on_reads(self, cluster):
        cluster.crash_node(1)
        key = keys_replicated_on(cluster, 1)[0]
        result = cluster.get("data", key)
        assert result.value is not None  # survivors met the quorum
        assert 1 in result.unavailable_nodes

    def test_crashed_replica_is_named_on_writes(self, cluster):
        cluster.crash_node(1)
        key = keys_replicated_on(cluster, 1)[0]
        result = cluster.put("data", key, b"new")
        assert result.value is True
        assert 1 in result.unavailable_nodes

    def test_recovery_clears_the_evidence(self, cluster):
        cluster.crash_node(1)
        key = keys_replicated_on(cluster, 1)[0]
        assert 1 in cluster.get("data", key).unavailable_nodes
        cluster.recover_node(1)
        assert cluster.get("data", key).unavailable_nodes == ()

    def test_multi_get_unions_across_keys(self, cluster):
        cluster.crash_node(1)
        keys = keys_replicated_on(cluster, 1, count=3)
        result = cluster.multi_get("data", keys)
        assert 1 in result.unavailable_nodes


class TestBreakerEvidence:
    def test_sightings_open_the_breaker(self, cluster):
        client = StorageClient(cluster=cluster)
        client.breakers = BreakerBoard()
        cluster.crash_node(1)
        for key in keys_replicated_on(cluster, 1, count=4):
            client.get("data", key)
        assert 1 in client.breakers.suspects(client.clock.now)

    def test_healthy_traffic_keeps_breakers_closed(self, cluster):
        client = StorageClient(cluster=cluster)
        client.breakers = BreakerBoard()
        for key in keys_replicated_on(cluster, 1, count=4):
            client.get("data", key)
        assert client.breakers.suspects(client.clock.now) == set()

    def test_a_batched_read_feeds_the_board_inside_a_gather_window(self):
        """The window's shared fetch is accounted like any other RPC: same
        breakers opened, same read repairs counted as outside a window."""
        observed = []
        for in_window in (False, True):
            cluster = build_cluster()
            keys = keys_replicated_on(cluster, 1, count=12)
            # Node 2 misses a round of writes and comes back without hint
            # replay, so quorum reads that include it find it stale.
            cluster.node(2).mark_down()
            for key in keys:
                cluster.put("data", key, b"newer")
            cluster.node(2).mark_up()
            cluster.crash_node(1)
            client = StorageClient(cluster=cluster)
            client.breakers = BreakerBoard()
            # Each batched read is one sighting of the dead node; the
            # threshold's worth of them opens its breaker.
            batches = [
                keys[index::FAILURE_THRESHOLD]
                for index in range(FAILURE_THRESHOLD)
            ]
            if in_window:
                client.begin_gather_window()
            values = [client.multi_get("data", batch) for batch in batches]
            if in_window:
                client.end_gather_window()
            assert values == [[b"newer"] * len(batch) for batch in batches]
            observed.append((
                client.breakers.suspects(client.clock.now),
                client.stats.metrics.value("client.read_repairs"),
                client.stats.rpcs,
                client.stats.operations,
                client.clock.now,
            ))
        outside, inside = observed
        assert outside == inside
        assert outside[0] == {1}
        assert outside[1] > 0
