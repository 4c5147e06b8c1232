"""Cluster behaviour under network faults: drops become timeouts or hints.

The contract under test: a dropped client→replica *write* message turns
into a hint (the write still acks if the quorum is met elsewhere — newest
wins makes a partial apply safe), while a dropped *read* message surfaces
as an :class:`RpcTimeoutError` before any result is returned.  A healthy
cluster never consults the fault plane's RNG at all.
"""

import pytest

from repro.errors import QuorumNotMetError, RpcTimeoutError, UnavailableError
from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.kvstore.network import CLIENT
from repro.replication.faults import FaultInjector, FaultSpec


def small_cluster(**overrides) -> KeyValueCluster:
    config = dict(
        storage_nodes=3, replication=3, read_quorum=2, write_quorum=2, seed=5
    )
    config.update(overrides)
    cluster = KeyValueCluster(ClusterConfig(**config))
    cluster.create_namespace("data")
    return cluster


class TestHealthyPath:
    def test_no_draws_without_configured_faults(self):
        cluster = small_cluster()
        for index in range(25):
            cluster.put("data", f"k{index}".encode(), b"v")
            cluster.get("data", f"k{index}".encode())
        assert not cluster.network.active
        assert cluster.network.dropped_messages == 0
        assert cluster.network._draws == 0


class TestDroppedWrites:
    def test_one_dropped_replica_becomes_hint_and_write_acks(self):
        cluster = small_cluster()
        cluster.network.set_flaky(2, 1.0)
        result = cluster.put("data", b"key", b"value")
        assert result.latency_seconds > 0
        assert cluster.replication.hint_count(2) == 1
        assert cluster.metrics.value("network.dropped") >= 1
        # Replicas that did receive the write serve the read quorum.
        cluster.network.heal()
        assert cluster.get("data", b"key").value == b"value"

    def test_all_replicas_dropped_raises_timeout(self):
        cluster = small_cluster()
        for node_id in range(3):
            cluster.network.set_flaky(node_id, 1.0)
        with pytest.raises(RpcTimeoutError):
            cluster.put("data", b"key", b"value")

    def test_hinted_write_replays_after_heal(self):
        cluster = small_cluster()
        cluster.network.set_flaky(0, 1.0)
        cluster.put("data", b"key", b"value")
        assert cluster.replication.hint_count(0) == 1
        event = FaultInjector(cluster).apply(FaultSpec(time=1.0, kind="heal"))
        assert cluster.replication.hint_count(0) == 0
        assert event.repair.hints_replayed == 1
        assert cluster.metrics.value("replication.hints_replayed") == 1
        assert cluster.node(0).stats.keys_written == 1  # charged at the heal


class TestDroppedReads:
    def test_dropped_read_is_timeout_not_stale_result(self):
        cluster = small_cluster()
        cluster.put("data", b"key", b"value")
        for node_id in range(3):
            cluster.network.set_flaky(node_id, 1.0)
        with pytest.raises(RpcTimeoutError) as excinfo:
            cluster.get("data", b"key")
        assert excinfo.value.namespace == "data"
        cluster.network.heal()
        assert cluster.get("data", b"key").value == b"value"

    def test_timeout_is_an_unavailable_error(self):
        # Retry loops catch UnavailableError; timeouts must be members.
        assert issubclass(RpcTimeoutError, UnavailableError)


class TestPartition:
    def test_minority_partition_fails_quorums_then_heals(self):
        cluster = small_cluster(storage_nodes=5)
        keys = [f"k{index}".encode() for index in range(40)]
        for key in keys:
            cluster.put("data", key, b"v")
        # Cut nodes 2 and 3 off from the client and the majority: any key
        # with two of its three replicas in the minority loses both
        # quorums; every other key keeps working.
        cluster.network.partition([(2, 3)])
        outcomes = {"ok": 0, "unavailable": 0}
        for key in keys:
            try:
                cluster.get("data", key)
                outcomes["ok"] += 1
            except UnavailableError:
                outcomes["unavailable"] += 1
        assert outcomes["ok"] > 0
        assert outcomes["unavailable"] > 0
        cluster.network.heal()
        for key in keys:
            assert cluster.get("data", key).value == b"v"

    def test_isolated_client_cannot_reach_anything(self):
        cluster = small_cluster()
        cluster.network.partition([(CLIENT,)])
        with pytest.raises(UnavailableError):
            cluster.get("data", b"key")
        with pytest.raises(UnavailableError):
            cluster.put("data", b"key", b"v")

    def test_heal_hands_a_hidden_replica_the_newest_record(self):
        # A replica partitioned away is up: its missed write is hinted,
        # and the heal (no crash, no recovery) replays the hint.
        cluster = small_cluster()
        cluster.put("data", b"key", b"old")
        injector = FaultInjector(cluster)
        injector.apply(FaultSpec(time=1.0, kind="partition", groups=((0,),)))
        cluster.put("data", b"key", b"new")
        assert cluster.replication.hint_count(0) == 1
        injector.apply(FaultSpec(time=2.0, kind="heal"))
        assert cluster.replication.hint_count(0) == 0
        replication = cluster.replication
        newest = replication.newest_record("data", b"key", cluster.live_ids())
        assert replication.stores[0].get_record("data", b"key") == newest[1]
        assert newest[1].endswith(b"new")

    def test_recovery_during_partition_skips_unreachable_sources(self):
        cluster = small_cluster(storage_nodes=4)
        cluster.put("data", b"key", b"value")
        cluster.crash_node(1)
        for index in range(10):
            cluster.put("data", f"down{index}".encode(), b"x")
        # Node 1 comes back while isolated: recovery must not read from
        # replicas it cannot reach, and must not throw.
        cluster.network.partition([(1,)])
        report = cluster.recover_node(1)
        assert cluster.node(1).up
        # Hints live with the coordinator and replay locally; every copy
        # must come from them — zero cross-node anti-entropy traffic.
        assert report.keys_copied == report.hints_replayed
        # Healed, a second pass completes the catch-up.
        cluster.network.heal()
        cluster.replication.rebalance(cluster.live_ids())
        for index in range(10):
            assert cluster.get("data", f"down{index}".encode()).value == b"x"


class TestDelay:
    def test_link_delay_charges_latency(self):
        slow = small_cluster()
        fast = small_cluster()
        slow.cluster_seed_check = fast  # keep configs visibly identical
        for node_id in range(3):
            slow.network.set_delay(node_id, 0.25)
        slow_result = slow.put("data", b"key", b"v")
        fast_result = fast.put("data", b"key", b"v")
        assert slow_result.latency_seconds >= fast_result.latency_seconds + 0.25


class TestSuspects:
    def test_reads_avoid_suspects_when_healthy_replicas_suffice(self):
        cluster = small_cluster(storage_nodes=4)
        cluster.put("data", b"key", b"value")
        replicas = cluster.replication.preference_list("data", b"key")
        suspect = replicas[0]
        result = cluster.get("data", b"key", suspects={suspect})
        assert result.value == b"value"
        assert result.node_id != suspect

    def test_all_replicas_suspect_still_serves(self):
        # Suspicion is advisory: when nothing healthy remains, suspects
        # are used anyway rather than failing the read.
        cluster = small_cluster()
        cluster.put("data", b"key", b"value")
        result = cluster.get("data", b"key", suspects={0, 1, 2})
        assert result.value == b"value"

    def test_writes_hint_suspects_when_quorum_met_without_them(self):
        cluster = small_cluster()
        replicas = cluster.replication.preference_list("data", b"key")
        suspect = replicas[-1]
        result = cluster.put("data", b"key", b"value", suspects={suspect})
        assert result.latency_seconds > 0
        assert cluster.replication.hint_count(suspect) == 1
