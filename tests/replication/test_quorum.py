"""Quorum data-path tests: replica copies, failover, hints, anti-entropy.

These tests pin the acceptance property of the replication tier: with
``N=3, R=W=2`` killing **any** single node loses no acknowledged write and
every read still succeeds.
"""

import pytest

from repro.errors import QuorumNotMetError, UnavailableError
from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.kvstore.client import StorageClient


def quorum_cluster(storage_nodes=4, **overrides) -> KeyValueCluster:
    config = dict(
        storage_nodes=storage_nodes,
        replication=3,
        read_quorum=2,
        write_quorum=2,
        seed=3,
    )
    config.update(overrides)
    cluster = KeyValueCluster(ClusterConfig(**config))
    cluster.create_namespace("data")
    return cluster


class TestQuorumConfig:
    def test_defaults_are_read_one_write_all(self):
        config = ClusterConfig(storage_nodes=4, replication=3)
        assert config.effective_read_quorum == 1
        assert config.effective_write_quorum == 3

    def test_overlapping_quorums_enforced(self):
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=4, replication=3, read_quorum=1,
                          write_quorum=2)

    def test_quorum_bounds(self):
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=4, replication=2, read_quorum=3)
        with pytest.raises(ValueError):
            ClusterConfig(storage_nodes=4, replication=2, write_quorum=0)


class TestReplicaPlacement:
    def test_each_key_physically_stored_on_replication_nodes(self):
        cluster = quorum_cluster()
        for index in range(40):
            cluster.load("data", f"k{index}".encode(), b"v")
        for index in range(40):
            key = f"k{index}".encode()
            holders = [
                node_id
                for node_id, store in cluster.replication.stores.items()
                if store.get_record("data", key) is not None
            ]
            assert len(holders) == 3
            assert sorted(holders) == sorted(
                cluster.replication.preference_list("data", key)
            )

    def test_routing_is_pure_function_of_key(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"v")
        first = cluster.route("data", b"k").node_id
        for _ in range(5):
            assert cluster.route("data", b"k").node_id == first


class TestSingleNodeFailover:
    """The acceptance criterion, for every possible victim node."""

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_no_acknowledged_write_lost_and_reads_succeed(self, victim):
        cluster = quorum_cluster()
        for index in range(60):
            cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())

        cluster.crash_node(victim)
        # Every read still succeeds against the surviving replicas.
        for index in range(60):
            assert cluster.get("data", f"k{index:03d}".encode()).value is not None
        # Writes acknowledged during the outage...
        for index in range(30):
            cluster.put("data", f"new{index:03d}".encode(), f"w{index}".encode())
        assert cluster.replication.hint_count(victim) > 0

        report = cluster.recover_node(victim)
        assert report.hints_replayed > 0
        # ...survive the recovery, visible from every replica choice.
        for index in range(30):
            key = f"new{index:03d}".encode()
            assert cluster.get("data", key).value == f"w{index}".encode()
            store = cluster.replication.stores[victim]
            prefs = cluster.replication.preference_list("data", key)
            if victim in prefs:
                assert store.get_record("data", key) is not None

    def test_reads_served_while_any_single_node_down(self):
        cluster = quorum_cluster()
        cluster.load("data", b"key", b"value")
        for victim in range(4):
            cluster.crash_node(victim)
            assert cluster.get("data", b"key").value == b"value"
            result = cluster.get_range("data", b"k", b"l")
            assert (b"key", b"value") in result.value
            cluster.recover_node(victim)


class TestQuorumFailureModes:
    def test_write_fails_without_write_quorum(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"v")
        prefs = cluster.replication.preference_list("data", b"k")
        for node_id in prefs[:2]:
            cluster.crash_node(node_id)
        with pytest.raises(QuorumNotMetError):
            cluster.put("data", b"k", b"new")
        # The failed write must not have mutated the surviving replica.
        from repro.replication import decode_record

        _, record = cluster.replication.newest_record(
            "data", b"k", cluster.live_ids()
        )
        assert record is not None and decode_record(record)[1] == b"v"

    def test_read_fails_without_read_quorum(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"v")
        prefs = cluster.replication.preference_list("data", b"k")
        for node_id in prefs[:2]:
            cluster.crash_node(node_id)
        with pytest.raises(QuorumNotMetError):
            cluster.get("data", b"k")

    def test_range_unavailable_when_coverage_unknown(self):
        cluster = quorum_cluster()
        for index in range(20):
            cluster.load("data", f"k{index}".encode(), b"v")
        for node_id in (0, 1, 2):
            cluster.crash_node(node_id)
        with pytest.raises(UnavailableError):
            cluster.get_range("data", None, None)

    def test_iter_namespace_and_size_guarded_like_ranges(self):
        cluster = quorum_cluster()
        for index in range(10):
            cluster.load("data", f"k{index}".encode(), b"v")
        for node_id in (0, 1, 2):
            cluster.crash_node(node_id)
        # Index backfill and counts must refuse rather than silently omit
        # rows whose whole replica set is down.
        with pytest.raises(UnavailableError):
            cluster.iter_namespace("data")
        with pytest.raises(UnavailableError):
            cluster.namespace_size("data")

    def test_quorum_error_is_typed_and_descriptive(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"v")
        prefs = cluster.replication.preference_list("data", b"k")
        for node_id in prefs:
            cluster.crash_node(node_id)
        with pytest.raises(QuorumNotMetError) as excinfo:
            cluster.get("data", b"k")
        assert isinstance(excinfo.value, UnavailableError)
        assert excinfo.value.needed == 2
        assert excinfo.value.available == 0


#: Every way to read a range, as ``(client, cluster) -> result``.
RANGE_ENTRIES = {
    "get_range": lambda client, cluster: client.get_range("data", b"k0", b"k9"),
    "filtered_range": lambda client, cluster: client.filtered_range(
        "data", b"k0", b"k9", None, True, lambda key, value: True
    ),
    "multi_get_range": lambda client, cluster: client.multi_get_range(
        "data", [(b"k0", b"k5", None, True), (b"k5", b"k9", 3, False)]
    ),
    "count_range": lambda client, cluster: client.count_range(
        "data", b"k0", b"k9"
    ),
    "namespace_size": lambda client, cluster: cluster.namespace_size("data"),
    "iter_namespace": lambda client, cluster: cluster.iter_namespace("data"),
    "peek_range": lambda client, cluster: cluster.peek_range("data", None, None),
}


class TestRefusedBeforeAnyWork:
    """With keys possibly missing or a quorum short, a request raises before
    any node is charged, any replica written or any hint buffered."""

    @pytest.mark.parametrize("entry", sorted(RANGE_ENTRIES))
    def test_range_entry_with_replication_factor_nodes_down(self, entry):
        cluster = quorum_cluster()
        for index in range(20):
            cluster.load("data", f"k{index}".encode(), b"v")
        for node_id in (0, 1, 2):
            cluster.crash_node(node_id)
        client = StorageClient(cluster)
        before = cluster.metrics_snapshot().counters()
        with pytest.raises(UnavailableError):
            RANGE_ENTRIES[entry](client, cluster)
        assert cluster.metrics_snapshot().counters() == before
        assert client.stats.metrics.counters() == {}
        assert client.now == 0.0

    @pytest.mark.parametrize("operation", ["put", "delete", "test_and_set", "get"])
    def test_all_replica_quorum_with_one_node_down(self, operation):
        cluster = quorum_cluster(
            storage_nodes=3, read_quorum=3, write_quorum=3
        )
        cluster.load("data", b"k", b"v")
        cluster.crash_node(0)
        records = {
            node_id: cluster.replication.stores[node_id].get_record("data", b"k")
            for node_id in (1, 2)
        }
        before = cluster.metrics_snapshot().counters()
        calls = {
            "put": lambda: cluster.put("data", b"k", b"new"),
            "delete": lambda: cluster.delete("data", b"k"),
            "test_and_set": lambda: cluster.test_and_set(
                "data", b"k", b"v", b"new"
            ),
            "get": lambda: cluster.get("data", b"k"),
        }
        with pytest.raises(QuorumNotMetError):
            calls[operation]()
        assert cluster.metrics_snapshot().counters() == before
        for node_id, record in records.items():
            assert (
                cluster.replication.stores[node_id].get_record("data", b"k")
                == record
            )
        assert cluster.replication.hint_count(0) == 0
        # Back to full strength, the untouched value is still the one read.
        cluster.recover_node(0)
        assert cluster.get("data", b"k").value == b"v"


class TestReadRepair:
    def test_stale_replica_is_repaired_by_a_read(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"old")
        prefs = cluster.replication.preference_list("data", b"k")
        # Write while one replica is down: it misses the update.
        cluster.crash_node(prefs[0])
        cluster.put("data", b"k", b"new")
        # Bring it back WITHOUT the recovery sync: it is now stale.
        cluster.node(prefs[0]).mark_up()
        stale = cluster.replication.stores[prefs[0]]
        assert b"old" in (stale.get_record("data", b"k") or b"")
        # R=2 reads eventually include the stale replica and repair it.
        for _ in range(4):
            assert cluster.get("data", b"k").value == b"new"
        assert b"new" in stale.get_record("data", b"k")


class TestDeletesAndTombstones:
    def test_delete_propagates_through_recovery(self):
        cluster = quorum_cluster()
        cluster.load("data", b"k", b"v")
        prefs = cluster.replication.preference_list("data", b"k")
        cluster.crash_node(prefs[0])
        assert cluster.delete("data", b"k").value is True
        cluster.recover_node(prefs[0])
        # The deleted key must not resurrect from the recovered replica.
        assert cluster.get("data", b"k").value is None
        assert cluster.namespace_size("data") == 0

    def test_test_and_set_during_failover(self):
        cluster = quorum_cluster()
        cluster.crash_node(0)
        assert cluster.test_and_set("data", b"t", None, b"1").value is True
        assert cluster.test_and_set("data", b"t", None, b"2").value is False
        assert cluster.test_and_set("data", b"t", b"1", b"2").value is True
        cluster.recover_node(0)
        assert cluster.get("data", b"t").value == b"2"


class TestAntiEntropyRebalance:
    def test_add_node_rebalances_and_preserves_data(self):
        cluster = quorum_cluster()
        for index in range(50):
            cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())
        joined = cluster.add_node().node_id
        assert len(cluster.engine(joined).map("data").range()) > 0
        # Every key is fully replicated on its (new) preference list.
        for index in range(50):
            key = f"k{index:03d}".encode()
            for node_id in cluster.replication.preference_list("data", key):
                assert (
                    cluster.replication.stores[node_id].get_record("data", key)
                    is not None
                )
            assert cluster.get("data", key).value == f"v{index}".encode()

    def test_remove_node_rebalances_and_preserves_data(self):
        cluster = quorum_cluster(storage_nodes=5)
        for index in range(50):
            cluster.load("data", f"k{index:03d}".encode(), f"v{index}".encode())
        cluster.remove_node()
        assert cluster.namespace_size("data") == 50
        for index in range(50):
            key = f"k{index:03d}".encode()
            assert cluster.get("data", key).value == f"v{index}".encode()
            holders = [
                node_id
                for node_id, store in cluster.replication.stores.items()
                if store.get_record("data", key) is not None
            ]
            assert len(holders) == 3

    def test_remove_node_guard_at_replication_floor(self):
        cluster = quorum_cluster(storage_nodes=3)
        with pytest.raises(UnavailableError):
            cluster.remove_node()

    def test_remove_node_guard_counts_up_nodes(self):
        cluster = quorum_cluster(storage_nodes=4)
        cluster.crash_node(0)
        # Four provisioned, three up: removing one would leave only two up
        # members for replication factor three.
        assert not cluster.can_remove_node()
        with pytest.raises(UnavailableError):
            cluster.remove_node()
        cluster.recover_node(0)
        assert cluster.can_remove_node()
        cluster.remove_node()
