"""A bounded range read merges its replicas once, until one of them changes.

``ReplicationManager.merged_range`` keeps the winners of each bounded range
and serves them again while no replica map in the view has logged a write
inside the range.  A spy on ``ReplicaStore.range_records`` shows which reads
touch the replicas; the simulated charges must not care either way.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.kvstore.node import StorageNode
from repro.replication.store import ReplicaStore

NAMESPACE = "data"


def _cluster() -> KeyValueCluster:
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, replication=3, seed=3))
    cluster.create_namespace(NAMESPACE)
    for index in range(50):
        cluster.load(NAMESPACE, b"k%03d" % index, b"v%d" % index)
    return cluster


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
    return cluster.get_range(NAMESPACE, b"k010", b"k020", 5)


def test_repeated_read_reads_no_replica(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    assert len(replica_reads) == 4  # every node of the view
    replica_reads.clear()
    again = _read(cluster)
    assert replica_reads == []
    assert again.value == first.value == [
        (b"k%03d" % index, b"v%d" % index) for index in range(10, 15)
    ]


def test_write_inside_the_range_forces_a_reread(replica_reads):
    cluster = _cluster()
    _read(cluster)
    replica_reads.clear()
    cluster.put(NAMESPACE, b"k012", b"new")
    assert (b"k012", b"new") in _read(cluster).value
    assert len(replica_reads) == 4


def test_delete_inside_the_range_forces_a_reread(replica_reads):
    cluster = _cluster()
    _read(cluster)
    replica_reads.clear()
    cluster.delete(NAMESPACE, b"k010")
    assert _read(cluster).value[0] == (b"k011", b"v11")
    assert len(replica_reads) == 4


def test_write_outside_the_range_does_not(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    replica_reads.clear()
    cluster.put(NAMESPACE, b"k030", b"new")
    cluster.put(NAMESPACE, b"k020", b"new")  # ``end`` is exclusive
    assert _read(cluster).value == first.value
    assert replica_reads == []


def test_node_going_down_forces_a_reread(replica_reads):
    cluster = _cluster()
    first = _read(cluster)
    replica_reads.clear()
    cluster.crash_node(1)
    assert _read(cluster).value == first.value
    assert len(replica_reads) == 3  # the view shrank: another entry
    replica_reads.clear()
    # Back with nothing changed in the range (no write missed, so recovery
    # copies nothing): the four-node entry still holds.
    cluster.recover_node(1)
    assert _read(cluster).value == first.value
    assert replica_reads == []


def test_batch_reads_a_repeated_range_once(replica_reads):
    cluster = _cluster()
    ranges = [(b"k010", b"k020", 5, True)] * 3 + [(b"k030", b"k040", 2, False)]
    result = cluster.multi_get_range(NAMESPACE, ranges)
    assert len(replica_reads) == 8  # two distinct ranges, four nodes each
    assert result.value[0] == result.value[1] == result.value[2]
    assert result.value[3] == [(b"k039", b"v39"), (b"k038", b"v38")]


def test_mutating_an_answer_leaves_the_memo_alone():
    cluster = _cluster()
    first = _read(cluster).value
    expected = list(first)
    first.clear()
    again = _read(cluster).value
    assert again == expected
    again[0] = (b"k010", b"forged")
    again.append((b"k999", b"extra"))
    assert _read(cluster).value == expected
    batch = cluster.multi_get_range(NAMESPACE, [(b"k010", b"k020", 5, True)])
    batch.value[0].reverse()
    assert _read(cluster).value == expected


def test_a_hit_is_charged_like_a_fresh_merge():
    """Two identical clusters read the same range twice; one forgets its
    merges in between.  Results, latencies, shipped bytes and every node
    counter agree."""
    remembering, forgetting = _cluster(), _cluster()
    outcomes = []
    for cluster, forget in ((remembering, False), (forgetting, True)):
        results = [_read(cluster)]
        if forget:
            cluster.replication._range_memos.clear()
        results.append(_read(cluster))
        outcomes.append((
            [
                (r.value, r.latency_seconds, r.node_id, r.keys_touched,
                 r.payload_bytes)
                for r in results
            ],
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
        return int(key[1:]) % 2 == 1

    remembering, forgetting = _cluster(), _cluster()
    answers = []
    for cluster, forget in ((remembering, False), (forgetting, True)):
        calls.clear()
        results = []
        for _ in range(2):
            if forget:
                cluster.replication._range_memos.clear()
            results.append(
                cluster.get_range(NAMESPACE, b"k010", b"k020", 5, record_filter=odd)
            )
        assert [r.value for r in results] == [[
            (b"k011", b"v11"), (b"k013", b"v13"),
        ]] * 2
        assert calls[0][1:] == (5, 2, 6)
        answers.append((
            list(calls),
            [(r.latency_seconds, r.keys_touched, r.payload_bytes) for r in results],
        ))
    assert answers[0] == answers[1]
