"""Tests for the per-node request queues (the queue-aware latency model)."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, KeyValueCluster
from repro.serving import NodeRequestQueue, install_queues, refresh_utilization, remove_queues


class TestNodeRequestQueue:
    def test_idle_queue_charges_no_wait(self):
        queue = NodeRequestQueue()
        assert queue.on_request(0.0, 0.002) == 0.0
        assert queue.on_request(10.0, 0.002) == 0.0

    def test_burst_beyond_bucket_capacity_waits(self):
        queue = NodeRequestQueue()
        # 0.04s + 0.04s fill bucket 0 and spill into bucket 1; the third
        # request finds buckets 0 and 1 exhausted only after 0.08s of
        # service is already booked, so it starts in a later bucket.
        assert queue.on_request(0.0, 0.04) == 0.0
        assert queue.on_request(0.0, 0.04) == 0.0
        wait = queue.on_request(0.0, 0.04)
        assert wait == pytest.approx(0.05)
        assert queue.arrivals == 3
        assert queue.service_seconds == pytest.approx(0.12)

    def test_backlog_drains_with_idle_time(self):
        queue = NodeRequestQueue()
        for _ in range(10):
            queue.on_request(0.0, 0.05)  # half a second of work at t=0
        assert queue.backlog_seconds(0.1) > 0.0
        # Long after the backlog cleared, a new request does not wait.
        assert queue.on_request(5.0, 0.01) == 0.0
        assert queue.backlog_seconds(10.0) == 0.0

    def test_waits_grow_under_sustained_overload(self):
        queue = NodeRequestQueue()
        waits = [queue.on_request(i * 0.01, 0.02) for i in range(50)]
        # Offered load is 2x capacity, so waiting time keeps climbing.
        assert waits[-1] > waits[10] > 0.0

    def test_busy_fraction_tracks_offered_service(self):
        queue = NodeRequestQueue(smoothing_seconds=0.01)
        for i in range(10):
            queue.on_request(i * 0.1, 0.05)  # ~50% busy
        _, busy = queue.sample(1.0)
        assert busy == pytest.approx(0.5, abs=0.05)

    def test_busy_fraction_saturates_at_one_in_overload(self):
        queue = NodeRequestQueue(smoothing_seconds=0.01)
        for i in range(100):
            queue.on_request(i * 0.01, 0.05)  # 5x capacity
        assert queue.sample(1.0)[1] == pytest.approx(1.0)

    def test_measured_rate_counts_arrivals(self):
        queue = NodeRequestQueue(smoothing_seconds=0.01)
        for i in range(20):
            queue.on_request(i * 0.05, 0.001)
        assert queue.sample(1.0)[0] == pytest.approx(20.0, rel=0.05)

    def test_sampling_twice_at_same_instant_is_idempotent(self):
        queue = NodeRequestQueue()
        queue.on_request(0.5, 0.01)
        first = queue.sample(1.0)
        assert queue.sample(1.0) == first


class TestClusterIntegration:
    def test_install_and_remove_queues(self):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=3, seed=1))
        queues = install_queues(cluster)
        assert set(queues) == {0, 1, 2}
        assert all(node.request_queue is queues[node.node_id]
                   for node in cluster.nodes)
        remove_queues(cluster)
        assert all(node.request_queue is None for node in cluster.nodes)

    def test_charges_include_queue_wait_under_contention(self):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=1, replication=1, seed=1))
        cluster.create_namespace("ns")
        cluster.load("ns", b"k", b"v")
        baseline = sum(
            cluster.get("ns", b"k", sim_time=100.0 + i).latency_seconds
            for i in range(50)
        )
        install_queues(cluster)
        node = cluster.nodes[0]
        # Everything lands at sim_time 0: far beyond one bucket of capacity.
        contended = sum(
            cluster.get("ns", b"k", sim_time=0.0).latency_seconds for i in range(50)
        )
        assert node.stats.queue_wait_seconds > 0.0
        assert contended > baseline

    def test_refresh_utilization_feeds_nodes_and_returns_busy(self):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=2, seed=1))
        cluster.create_namespace("ns")
        install_queues(cluster)
        for i in range(200):
            cluster.get("ns", b"k%d" % i, sim_time=i * 0.001)
        busy = refresh_utilization(cluster, 0.2)
        assert 0.0 < busy <= 1.0
        assert any(node.utilization > 0.0 for node in cluster.nodes)

    def test_without_queues_static_utilization_is_reported(self):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=2, seed=1))
        cluster.set_offered_load(
            cluster.total_capacity_ops_per_second() * 0.5
        )
        assert refresh_utilization(cluster, 1.0) == pytest.approx(0.5)
