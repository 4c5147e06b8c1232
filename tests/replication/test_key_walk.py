"""Anti-entropy's key walk across chunk boundaries, and the divergence check.

``ReplicationManager.rebalance`` resolves keys ``SCAN_CHUNK_KEYS`` at a time.
Shrunk to 3 here, every kind of disagreement below lands on both sides of
some chunk boundary.  ``replica_divergence`` (the chaos soak's convergence
check) must count the disagreement before repair and none after it.
"""

import pytest

from repro.bench.chaos import replica_divergence
from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.replication import manager as manager_module
from repro.replication.store import encode_record, record_seq

NS = "data"
SOURCES = [0, 1, 2]
EXTRA = 3


@pytest.fixture
def cluster(monkeypatch):
    monkeypatch.setattr(manager_module, "SCAN_CHUNK_KEYS", 3)
    cluster = KeyValueCluster(
        ClusterConfig(storage_nodes=4, replication=2, seed=3)
    )
    cluster.create_namespace(NS)
    return cluster


def test_rebalance_walks_every_chunk_and_never_trusts_an_extra(cluster):
    replication = cluster.replication
    stores = replication.stores

    def put(node_id: int, key: bytes, seq: int) -> None:
        stores[node_id].apply_record(NS, key, encode_record(seq, b"v%d" % seq))

    def seq_on(node_id: int, key: bytes) -> int:
        return record_seq(stores[node_id].get_record(NS, key))

    keys = [b"k%03d" % index for index in range(24)]
    owners = {key: replication.preference_list(NS, key) for key in keys}
    for key in keys:
        for node_id in owners[key]:
            put(node_id, key, 1)
    # Keys the extra node does not own take the four kinds of damage in
    # turn: a stale owner, an owner missing the key, and a stray copy on a
    # source or on the extra node that owns nothing of it.
    damaged = [key for key in keys if EXTRA not in owners[key]]
    assert len(damaged) >= 8
    stale, missing, strays = [], [], []
    for index, key in enumerate(damaged):
        first, second = owners[key]
        kind = index % 4
        if kind == 0:
            put(first, key, 2)
            stale.append(key)
        elif kind == 1:
            assert stores[second].discard(NS, key)
            missing.append(key)
        else:
            stray = EXTRA if kind == 3 else next(
                node_id for node_id in SOURCES if node_id not in owners[key]
            )
            put(stray, key, 1)
            strays.append((stray, key))
    only_extra = next(
        key
        for key in (b"k%03d~" % index for index in range(100))
        if EXTRA not in replication.preference_list(NS, key)
    )
    put(EXTRA, only_extra, 5)

    before = replica_divergence(cluster)
    assert before == len(stale) + len(missing) + 1

    # The extra node is written to and pruned, but never read as a source.
    report = replication.rebalance(SOURCES, target_ids={*SOURCES, EXTRA})
    assert report.keys_examined == len(keys)
    assert report.keys_removed == len(strays)
    for key in stale + missing:
        newest = 2 if key in stale else 1
        assert [seq_on(node_id, key) for node_id in owners[key]] == [newest] * 2
    for stray, key in strays:
        assert stores[stray].get_record(NS, key) is None
    for node_id in replication.preference_list(NS, only_extra):
        assert stores[node_id].get_record(NS, only_extra) is None
    assert seq_on(EXTRA, only_extra) == 5
    assert replica_divergence(cluster) == 1  # the extra-only key, untouched

    # A fleet-wide pass trusts every node: nothing disagrees after it.
    replication.rebalance(SOURCES + [EXTRA])
    assert replica_divergence(cluster) == 0
    for node_id in replication.preference_list(NS, only_extra):
        assert seq_on(node_id, only_extra) == 5
    assert stores[EXTRA].get_record(NS, only_extra) is None
