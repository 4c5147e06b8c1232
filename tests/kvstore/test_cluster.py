"""Unit tests for the simulated key/value store cluster and client."""

import pytest

from repro.errors import ExecutionError
from repro.kvstore import ClusterConfig, KeyValueCluster, StorageClient


@pytest.fixture
def cluster() -> KeyValueCluster:
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, replication=2, seed=3))
    cluster.create_namespace("data")
    for index in range(50):
        cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())
    return cluster


class TestClusterConfig:
    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=0)

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=2, replication=3)


class TestClusterOperations:
    def test_get_returns_value_and_latency(self, cluster):
        result = cluster.get("data", b"k001")
        assert result.value == b"v1"
        assert result.latency_seconds > 0

    def test_get_missing_key(self, cluster):
        assert cluster.get("data", b"nope").value is None

    def test_unknown_namespace(self, cluster):
        with pytest.raises(ExecutionError):
            cluster.get("missing", b"k")

    def test_put_then_get(self, cluster):
        cluster.put("data", b"new", b"value")
        assert cluster.get("data", b"new").value == b"value"

    def test_delete(self, cluster):
        assert cluster.delete("data", b"k001").value is True
        assert cluster.get("data", b"k001").value is None
        assert cluster.delete("data", b"k001").value is False

    def test_test_and_set(self, cluster):
        assert cluster.test_and_set("data", b"tas", None, b"1").value is True
        assert cluster.test_and_set("data", b"tas", None, b"2").value is False
        assert cluster.test_and_set("data", b"tas", b"1", b"2").value is True

    def test_bounded_range_scatter_gather(self, cluster):
        result = cluster.get_range("data", b"k000", b"k010")
        assert len(result.value) == 10
        # Replicas are placed by consistent hashing, so a bounded range is
        # served by the (several) replicas owning its keys in parallel.
        assert result.latency_seconds > 0

    def test_unbounded_scan_touches_all_nodes(self, cluster):
        bounded = cluster.get_range("data", b"k000", b"k005")
        full = cluster.get_range("data", None, None)
        assert len(full.value) == 50
        # A full scan visits every partition so it reports no single node.
        assert full.node_id == -1
        assert full.latency_seconds > bounded.latency_seconds

    def test_multi_get_parallel_faster_than_sequential(self, cluster):
        keys = [f"k{i:03d}".encode() for i in range(20)]
        parallel = cluster.multi_get("data", keys, parallel=True)
        sequential = cluster.multi_get("data", keys, parallel=False)
        assert parallel.value == sequential.value
        assert parallel.latency_seconds < sequential.latency_seconds

    def test_multi_get_empty(self, cluster):
        result = cluster.multi_get("data", [])
        assert result.value == []
        assert result.latency_seconds == 0.0

    def test_multi_get_range(self, cluster):
        ranges = [(b"k000", b"k003", None, True), (b"k010", b"k012", None, True)]
        parallel = cluster.multi_get_range("data", ranges, parallel=True)
        sequential = cluster.multi_get_range("data", ranges, parallel=False)
        assert [len(r) for r in parallel.value] == [3, 2]
        assert parallel.value == sequential.value
        # Each call draws fresh service-time noise, so compare totals over
        # several repetitions rather than a single (straggler-prone) pair.
        total_parallel = sum(
            cluster.multi_get_range("data", ranges, parallel=True).latency_seconds
            for _ in range(20)
        )
        total_sequential = sum(
            cluster.multi_get_range("data", ranges, parallel=False).latency_seconds
            for _ in range(20)
        )
        assert total_parallel < total_sequential

    def test_count_range(self, cluster):
        assert cluster.count_range("data", b"k000", b"k010").value == 10

    def test_offered_load_increases_latency(self, cluster):
        baseline = sum(
            cluster.get("data", b"k001").latency_seconds for _ in range(200)
        )
        cluster.set_offered_load(
            cluster.config.storage_nodes
            * cluster.config.node_capacity_ops_per_second
            * 0.85
        )
        loaded = sum(cluster.get("data", b"k001").latency_seconds for _ in range(200))
        assert loaded > baseline * 2

    def test_namespace_management(self):
        cluster = KeyValueCluster(ClusterConfig(storage_nodes=2, replication=1))
        cluster.create_namespace("a")
        cluster.create_namespace("a")  # idempotent
        assert cluster.namespaces() == ["a"]

    def test_stats_tracking(self, cluster):
        cluster.reset_stats()
        cluster.get("data", b"k001")
        cluster.put("data", b"x", b"y")
        gets = sum(node.stats.gets for node in cluster.nodes)
        puts = sum(node.stats.puts for node in cluster.nodes)
        assert gets == 1
        assert puts == cluster.config.replication


class TestRangeEdgeCases:
    """Range semantics now that data is physically split per node."""

    @pytest.fixture
    def replicated(self) -> KeyValueCluster:
        cluster = KeyValueCluster(
            ClusterConfig(storage_nodes=5, replication=3, read_quorum=2,
                          write_quorum=2, seed=11)
        )
        cluster.create_namespace("data")
        for index in range(40):
            cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())
        return cluster

    def test_empty_bounded_range(self, replicated):
        result = replicated.get_range("data", b"zzz", b"zzzz")
        assert result.value == []
        assert result.keys_touched == 0
        # An empty probe still costs one RPC.
        assert result.latency_seconds > 0

    def test_empty_range_with_inverted_bounds(self, replicated):
        assert replicated.get_range("data", b"k030", b"k010").value == []
        assert replicated.count_range("data", b"k030", b"k010").value == 0

    def test_single_key_range(self, replicated):
        result = replicated.get_range("data", b"k007", b"k007\x00")
        assert result.value == [(b"k007", b"v7")]
        assert replicated.count_range("data", b"k007", b"k007\x00").value == 1

    def test_range_spans_shard_boundaries(self, replicated):
        """A contiguous key range is scattered over nodes; the merge must
        reassemble it completely and in order."""
        result = replicated.get_range("data", b"k000", b"k040")
        keys = [key for key, _ in result.value]
        assert keys == [f"k{i:03d}".encode() for i in range(40)]
        serving_nodes = set()
        for key in keys:
            serving_nodes.add(replicated.route("data", key).node_id)
        assert len(serving_nodes) > 1  # genuinely crosses shards

    def test_descending_range_with_limit(self, replicated):
        result = replicated.get_range("data", b"k000", b"k040", limit=5,
                                      ascending=False)
        keys = [key for key, _ in result.value]
        assert keys == [f"k{i:03d}".encode() for i in (39, 38, 37, 36, 35)]

    def test_count_range_across_shards(self, replicated):
        assert replicated.count_range("data", None, None).value == 40
        assert replicated.count_range("data", b"k010", b"k020").value == 10

    def test_multi_get_range_across_shards(self, replicated):
        ranges = [
            (b"k000", b"k003", None, True),
            (b"k038", b"k040", None, True),
            (b"zzz", b"zzzz", None, True),  # empty
        ]
        parallel = replicated.multi_get_range("data", ranges, parallel=True)
        sequential = replicated.multi_get_range("data", ranges, parallel=False)
        assert [len(r) for r in parallel.value] == [3, 2, 0]
        assert parallel.value == sequential.value

    def test_range_correct_after_topology_changes(self, replicated):
        replicated.add_node()
        assert len(replicated.get_range("data", b"k000", b"k040").value) == 40
        replicated.remove_node()
        assert len(replicated.get_range("data", b"k000", b"k040").value) == 40

    def test_deleted_key_suppressed_across_replicas(self, replicated):
        replicated.delete("data", b"k005")
        keys = [key for key, _ in replicated.get_range("data", b"k000", b"k010").value]
        assert b"k005" not in keys
        assert replicated.count_range("data", b"k000", b"k010").value == 9


class TestStorageClient:
    def test_clock_advances_with_operations(self, cluster):
        client = StorageClient(cluster=cluster)
        assert client.now == 0
        client.get("data", b"k001")
        after_one = client.now
        client.get("data", b"k002")
        assert client.now > after_one > 0

    def test_operation_counting(self, cluster):
        client = StorageClient(cluster=cluster)
        client.get("data", b"k001")
        client.multi_get("data", [b"k001", b"k002", b"k003"])
        client.get_range("data", b"k000", b"k010")
        assert client.stats.operations == 1 + 3 + 1

    def test_stats_delta(self, cluster):
        client = StorageClient(cluster=cluster)
        client.get("data", b"k001")
        before = client.stats.snapshot()
        client.multi_get("data", [b"k001", b"k002"])
        delta = client.stats.snapshot().delta(before)
        assert delta.operations == 2
        assert delta.total_latency_seconds > 0

    def test_put_and_delete(self, cluster):
        client = StorageClient(cluster=cluster)
        client.put("data", b"cw", b"1")
        assert client.get("data", b"cw") == b"1"
        assert client.delete("data", b"cw") is True
        assert client.test_and_set("data", b"cw", None, b"2") is True
        assert client.count_range("data", b"cw", b"cx") == 1
