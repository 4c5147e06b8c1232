"""Tests for the per-node request queues (the queue-aware latency model)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, KeyValueCluster
from repro.schema.keys import encode_key, prefix_range
from repro.serving import NodeRequestQueue, install_queues, refresh_utilization, remove_queues
from repro.serving.queueing import BUCKET_SECONDS, _bucket


def all_bucket_backlog(queue: NodeRequestQueue, now: float) -> float:
    """``backlog_seconds`` as a walk over every bucket of the calendar,
    summed in bucket order (the order is the one freedom float addition
    leaves)."""
    horizon = _bucket(now)
    total = 0.0
    for bucket, used in sorted(queue._buckets.items()):
        if bucket > horizon:
            total += used
        elif bucket == horizon:
            total += max(0.0, bucket * BUCKET_SECONDS + used - now)
    return total


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

    def test_backlog_is_what_lies_ahead_of_now(self):
        queue = NodeRequestQueue()
        assert queue.backlog_seconds(0.0) == 0.0
        queue.on_request(0.0, 0.12)  # buckets 0 and 1 full, 2 in part
        assert queue.backlog_seconds(0.0) == pytest.approx(0.12)
        assert queue.backlog_seconds(0.02) == pytest.approx(0.10)
        assert queue.backlog_seconds(0.2) == 0.0
        # A later arrival queues behind the booked work.
        assert queue.on_request(0.01, 0.01) == pytest.approx(0.09)
        assert queue.backlog_seconds(0.0) == pytest.approx(0.13)
        assert queue.backlog_seconds(0.2) == 0.0

    @pytest.mark.parametrize("arrival", [0.3, 1.0])
    def test_a_round_arrival_books_from_its_own_bucket(self, arrival):
        # arrival / BUCKET_SECONDS lands a hair under a whole number here:
        # a plain floor would book part of the charge into the bucket that
        # ends at the arrival, where no backlog asked from then on sees it.
        queue = NodeRequestQueue()
        assert queue.on_request(arrival, 0.12) == pytest.approx(0.0, abs=1e-12)
        assert queue.backlog_seconds(arrival) == pytest.approx(0.12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), charges=st.integers(1, 120))
    def test_span_sum_equals_the_all_bucket_walk(self, seed, charges):
        """Charges arrive out of order (private client clocks), the control
        tick samples and prunes, and ``backlog_seconds`` is asked in
        between, at times before, inside and past the booked span."""
        rng = random.Random(seed)
        queue = NodeRequestQueue(smoothing_seconds=rng.choice([0.05, 0.5, 2.0]))
        clock = 0.0
        for _ in range(charges):
            clock += rng.expovariate(50.0)
            arrival = max(0.0, clock - rng.uniform(0.0, 0.5))
            queue.on_request(arrival, rng.uniform(0.0, 0.08))
            if rng.random() < 0.1:
                queue.sample(clock)  # prunes what is long past
            for now in (arrival, clock, clock + rng.uniform(-1.0, 3.0)):
                assert queue.backlog_seconds(now) == all_bucket_backlog(queue, now)
        queue.sample(clock + 60.0)
        for now in (clock, clock + 30.0, clock + 60.0):
            assert queue.backlog_seconds(now) == all_bucket_backlog(queue, now)


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


class TestLeastBacklogReads:
    """A read goes to the replica whose queue holds the least backlog."""

    def cluster(self) -> KeyValueCluster:
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, seed=3))
        cluster.create_namespace("ns")
        for number in range(10):
            cluster.load("ns", encode_key(("owner", number)), b"v")
        return cluster

    def test_a_hot_replica_hands_its_reads_to_the_idle_one(self):
        cluster = self.cluster()
        queues = install_queues(cluster)
        start, end = prefix_range(("owner",))
        key = encode_key(("owner", 3))
        order = cluster.replication.read_preference("ns", start)
        key_order = cluster.replication.read_preference("ns", key)
        # Half a second of work booked at t=0 on both first replicas.
        for node_id in {order[0], key_order[0]}:
            for _ in range(10):
                queues[node_id].on_request(0.0, 0.05)
        ranged = cluster.get_range("ns", start, end, 5, sim_time=0.1)
        assert ranged.node_id == order[1]
        assert ranged.latency_seconds < 0.05
        got = cluster.get("ns", key, sim_time=0.1)
        assert got.node_id == key_order[1]
        assert got.queue_wait_seconds == 0.0
        # Once the backlog has drained, read order serves again.  Each read
        # at its own instant: a read's charge is backlog to one asked then.
        assert cluster.get_range("ns", start, end, 5, sim_time=1.0).node_id == order[0]
        assert cluster.get("ns", key, sim_time=1.5).node_id == key_order[0]

    def test_without_queues_reads_keep_read_order(self):
        cluster = self.cluster()
        start, end = prefix_range(("owner",))
        order = cluster.replication.read_preference("ns", start)
        assert cluster.get_range("ns", start, end, 5).node_id == order[0]
        install_queues(cluster)
        remove_queues(cluster)
        assert cluster.get_range("ns", start, end, 5).node_id == order[0]
