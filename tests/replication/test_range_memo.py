"""A bounded range inside one leading value merges its replicas once, until
a key with that leading value changes.

``ReplicationManager.merged_range`` keeps the winners of each such range
under its lead, and every ``ReplicaStore`` door that changes a key drops the
entries of the key's lead; changes past the doors clear the memo.  A spy on
``ReplicaStore.range_records`` shows which reads touch the replicas; the
simulated charges must not care either way.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.kvstore.node import StorageNode
from repro.replication.manager import ReplicationManager
from repro.replication.store import ReplicaStore, encode_record
from repro.schema.keys import decode_key, encode_key

NAMESPACE = "data"
OWNERS = ("alice", "bob", "carol")
#: The range every test reads: numbers 10 to 19 of ``alice``.
START, END = encode_key(("alice", 10)), encode_key(("alice", 20))
LEAD = encode_key(("alice",))


def _row(owner: str, number: int, value: bytes = b""):
    return encode_key((owner, number)), value or b"v%d" % number


def _cluster(**config) -> KeyValueCluster:
    cluster = KeyValueCluster(
        ClusterConfig(storage_nodes=4, replication=3, seed=3, **config)
    )
    cluster.create_namespace(NAMESPACE)
    for owner in OWNERS:
        for number in range(50):
            cluster.load(NAMESPACE, *_row(owner, number))
    return cluster


def _group(cluster: KeyValueCluster) -> List[int]:
    return list(cluster.replication.range_group(NAMESPACE, START, END)[1])


@pytest.fixture
def replica_reads(monkeypatch) -> List[str]:
    """One entry per ``ReplicaStore.range_records`` call, from now on."""
    reads: List[str] = []
    original = ReplicaStore.range_records

    def range_records(self, namespace, *args):
        reads.append(namespace)
        return original(self, namespace, *args)

    monkeypatch.setattr(ReplicaStore, "range_records", range_records)
    return reads


def _read(cluster: KeyValueCluster):
    return cluster.get_range(NAMESPACE, START, END, 5)


def test_repeated_read_reads_no_replica(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    assert len(replica_reads) == 3  # the group's replicas
    replica_reads.clear()
    again = _read(cluster)
    assert replica_reads == []
    assert again.value == first.value == [
        _row("alice", number) for number in range(10, 15)
    ]


def test_write_inside_the_lead_forces_a_reread(replica_reads):
    cluster = _cluster()
    _read(cluster)
    replica_reads.clear()
    cluster.put(NAMESPACE, *_row("alice", 12, b"new"))
    assert _row("alice", 12, b"new") in _read(cluster).value
    assert len(replica_reads) == 3


def test_write_to_the_lead_outside_the_range_forces_a_reread_too(replica_reads):
    """The memo forgets by leading value, not by key range."""
    cluster = _cluster()
    first = _read(cluster)
    replica_reads.clear()
    cluster.put(NAMESPACE, *_row("alice", 40, b"new"))
    assert _read(cluster).value == first.value
    assert len(replica_reads) == 3


def test_delete_inside_the_lead_forces_a_reread(replica_reads):
    cluster = _cluster()
    _read(cluster)
    replica_reads.clear()
    cluster.delete(NAMESPACE, encode_key(("alice", 10)))
    assert _read(cluster).value[0] == _row("alice", 11)
    assert len(replica_reads) == 6  # the tombstone leaves a second pass


def test_write_to_another_lead_does_not(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    replica_reads.clear()
    cluster.put(NAMESPACE, *_row("bob", 12, b"new"))
    cluster.put(NAMESPACE, *_row("alicia", 12, b"new"))
    cluster.put(NAMESPACE, b"raw", b"new")
    assert _read(cluster).value == first.value
    assert replica_reads == []


def test_a_bounded_raw_key_range_is_merged_every_time(replica_reads):
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, replication=3, seed=3))
    cluster.create_namespace(NAMESPACE)
    for index in range(50):
        cluster.load(NAMESPACE, b"k%03d" % index, b"v%d" % index)
    results = []
    for _ in range(2):
        replica_reads.clear()
        results.append(cluster.get_range(NAMESPACE, b"k010", b"k020", 5).value)
        assert len(replica_reads) == 4  # every node, both times
    assert results[0] == results[1]
    assert cluster.replication._range_memos == {}


def test_node_going_down_forces_a_reread(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    replica_reads.clear()
    cluster.crash_node(_group(cluster)[1])
    assert _read(cluster).value == first.value
    assert len(replica_reads) == 2  # the view shrank: another entry
    replica_reads.clear()
    # Back with nothing missed (recovery applies nothing, so no door drops
    # the lead): the three-replica entry still holds.
    cluster.recover_node(_group(cluster)[1])
    assert _read(cluster).value == first.value
    assert replica_reads == []


def test_batch_reads_a_repeated_range_once(replica_reads):
    cluster = _cluster()
    bob = encode_key(("bob",))
    ranges = [(START, END, 5, True)] * 3 + [(bob, bob + b"\xff", 2, False)]
    result = cluster.multi_get_range(NAMESPACE, ranges)
    assert len(replica_reads) == 6  # two distinct ranges, three replicas each
    assert result.value[0] == result.value[1] == result.value[2]
    assert result.value[3] == [_row("bob", 49), _row("bob", 48)]


def test_mutating_an_answer_leaves_the_memo_alone():
    cluster = _cluster()
    first = _read(cluster).value
    expected = list(first)
    first.clear()
    again = _read(cluster).value
    assert again == expected
    again[0] = (START, b"forged")
    again.append((b"k999", b"extra"))
    assert _read(cluster).value == expected
    batch = cluster.multi_get_range(NAMESPACE, [(START, END, 5, True)])
    batch.value[0].reverse()
    assert _read(cluster).value == expected


def test_bulk_load_clears_the_memo():
    """An engine's bulk load writes past every ``ReplicaStore`` door."""
    cluster = _cluster()
    _read(cluster)
    assert cluster.replication._range_memos
    cluster.bulk_load_namespace(NAMESPACE, iter([_row("alice", 11, b"bulk")]))
    assert cluster.replication._range_memos == {}
    assert _row("alice", 11, b"bulk") in _read(cluster).value


def test_durable_crash_and_recovery_clear_the_memo():
    cluster = _cluster(storage_engine="lsm")
    try:
        first = _read(cluster).value
        node_id = _group(cluster)[0]
        cluster.crash_node(node_id)
        assert cluster.replication._range_memos == {}
        assert _read(cluster).value == first
        cluster.recover_node(node_id)
        assert cluster.replication._range_memos == {}
        assert _read(cluster).value == first
    finally:
        cluster.close()


def test_a_node_attached_or_forgotten_clears_the_memo():
    """A store put in or taken out is no door's change: node 1 is attached
    again over an empty engine, and the read over it must see that."""
    manager = ReplicationManager(replication=2)
    for node_id in range(2):
        manager.attach_node(node_id)
    key, value = _row("alice", 11)
    manager.stores[1].write_fresh(NAMESPACE, key, encode_record(1, value))
    lead, _ = manager.range_group(NAMESPACE, START, END)

    def read():
        return manager.merged_range(NAMESPACE, [0, 1], lead, START, END, 5)[0]

    assert read() == [(key, value)]
    manager.attach_node(1)
    assert read() == []
    manager.stores[1].write_fresh(NAMESPACE, key, encode_record(2, value))
    assert read() == [(key, value)]
    manager.forget_node(1)
    assert manager._range_memos == {}


def _outcome(result):
    return (
        result.value, result.latency_seconds, result.node_id,
        result.keys_touched, result.payload_bytes,
    )


def test_a_partition_keeps_its_own_entry_and_a_write_drops_both(replica_reads):
    """A partition clears nothing (no node crashes): the range read while
    one replica is hidden merges the visible ones under its own entry, a
    write to the lead drops that entry and the full group's alike, and
    after heal the read returns the newest row.  Everything the simulation
    sees matches a run whose memo is cleared before every read."""
    outcomes = []
    for forget in (False, True):
        cluster = _cluster(read_quorum=2, write_quorum=2)
        memo = cluster.replication._range_memos
        group = _group(cluster)
        visible = tuple(group[1:])

        def read():
            if forget:
                cluster.replication.clear_range_memo()
            replica_reads.clear()
            return cluster.get_range(NAMESPACE, START, END, 5)

        results = [read()]
        cluster.network.partition([[group[0]]])
        results.append(read())
        assert len(replica_reads) == 2  # the visible replicas only
        if not forget:
            held = {key[-1] for key in memo[NAMESPACE][LEAD]}
            assert held == {tuple(group), visible}
        results.append(read())
        assert len(replica_reads) == (2 if forget else 0)
        cluster.put(NAMESPACE, *_row("alice", 13, b"new"))
        if not forget:
            assert LEAD not in memo[NAMESPACE]  # both entries
        results.append(read())
        assert len(replica_reads) == 2
        cluster.network.heal()
        results.append(read())
        assert len(replica_reads) == 3
        assert _row("alice", 13, b"new") in results[-1].value
        outcomes.append((
            [_outcome(result) for result in results],
            [node.stats.metrics.counters() for node in cluster.nodes],
        ))
    assert outcomes[0] == outcomes[1]


def test_a_hit_is_charged_like_a_fresh_merge():
    """Two identical clusters read the same range twice; one forgets its
    merges in between.  Results, latencies, shipped bytes and every node
    counter agree."""
    remembering, forgetting = _cluster(), _cluster()
    outcomes = []
    for cluster, forget in ((remembering, False), (forgetting, True)):
        results = [_read(cluster)]
        if forget:
            cluster.replication.clear_range_memo()
        results.append(_read(cluster))
        outcomes.append((
            [_outcome(r) for r in results],
            [node.stats.metrics.counters() for node in cluster.nodes],
        ))
    assert outcomes[0] == outcomes[1]


def test_a_filtered_hit_is_charged_like_a_fresh_merge(monkeypatch):
    """A range with a pushed-down filter charges what it examined and
    shipped per request, whether its rows came from the memo or not."""
    calls = []
    original = StorageNode.charge_filtered_range

    def charge_filtered_range(self, examined, shipped, nbytes, sim_time):
        calls.append((self.node_id, examined, shipped, nbytes))
        return original(self, examined, shipped, nbytes, sim_time)

    monkeypatch.setattr(StorageNode, "charge_filtered_range", charge_filtered_range)

    def odd(key: bytes, value: bytes) -> bool:
        return decode_key(key)[1] % 2 == 1

    remembering, forgetting = _cluster(), _cluster()
    answers = []
    for cluster, forget in ((remembering, False), (forgetting, True)):
        calls.clear()
        results = []
        for _ in range(2):
            if forget:
                cluster.replication.clear_range_memo()
            results.append(
                cluster.get_range(NAMESPACE, START, END, 5, record_filter=odd)
            )
        assert [r.value for r in results] == [[
            _row("alice", 11), _row("alice", 13),
        ]] * 2
        assert calls[0][1:] == (5, 2, 6)
        answers.append((
            list(calls),
            [(r.latency_seconds, r.keys_touched, r.payload_bytes) for r in results],
        ))
    assert answers[0] == answers[1]
