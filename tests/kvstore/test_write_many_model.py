"""Batched quorum writes against the per-key write, on generated clusters.

``KeyValueCluster.write_many`` sequences a batch of puts and tombstones of
one namespace in key order, sends every replica node one write RPC for all
of its keys, acks each key at its write quorum and the batch at its slowest
key.  The definition it must keep is the single-key ``put`` / ``delete``:
on a twin cluster built from the same history, writing the keys one by one
(with the same replicas down, partitioned away, suspected or behind a link
that drops every message) must leave every replica store and every hint
buffer the same, charge each node the same keys in one RPC instead of one
per key, and answer the same existence flags.  A key without a write quorum
refuses the batch before anything is hinted, written or charged.

The batch's latency is checked against the definition too: each node's one
write RPC is its whole charged latency, a key acks at the ``W``-th fastest
of the nodes that stored it, and the batch at the slowest key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig as DatabaseClusterConfig
from repro import PiqlDatabase
from repro.errors import (
    CardinalityViolationError,
    QuorumNotMetError,
    RpcTimeoutError,
)
from repro.kvstore.client import StorageClient
from repro.kvstore.cluster import ClusterConfig, KeyValueCluster
from repro.kvstore.network import CLIENT, NetworkModel
from repro.workloads.scadr.schema import scadr_ddl

NAMESPACE = "data"
KEYS = [b"key-%02d" % index for index in range(8)]

#: ("put", key, value) | ("delete", key) | ("down", node) | ("up", node)
Step = Tuple


@st.composite
def cluster_shapes(draw) -> Dict[str, int]:
    """storage_nodes 2-4, replication 2-3, every legal (R, W)."""
    nodes = draw(st.integers(2, 4))
    replication = draw(st.integers(2, min(3, nodes)))
    read_quorum = draw(st.integers(1, replication))
    write_quorum = draw(st.integers(replication - read_quorum + 1, replication))
    return dict(
        storage_nodes=nodes,
        replication=replication,
        read_quorum=read_quorum,
        write_quorum=write_quorum,
        seed=draw(st.integers(0, 50)),
        vnodes_per_node=8,
    )


def histories() -> st.SearchStrategy[List[Step]]:
    """Writes before the batch, some while one node was down."""
    key = st.sampled_from(KEYS)
    write = st.one_of(
        st.tuples(st.just("put"), key, st.binary(max_size=16)),
        st.tuples(st.just("delete"), key),
    )
    episode = st.tuples(
        st.integers(-1, 3), st.lists(write, min_size=1, max_size=6)
    )

    def flatten(episodes) -> List[Step]:
        steps: List[Step] = []
        for down, writes in episodes:
            if down < 0:
                steps += writes
            else:
                steps += [("down", down), *writes, ("up", down)]
        return steps

    return st.lists(episode, max_size=4).map(flatten)


#: A batch: distinct keys (over every replica group the shape has), each a
#: put of some bytes or a tombstone (``None``).
batches = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.one_of(st.none(), st.binary(max_size=24)),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda item: item[0],
)
node_sets = st.sets(st.integers(0, 3), max_size=1)


def build(shape: Dict[str, int], history: Sequence[Step]) -> KeyValueCluster:
    """A cluster that lived through ``history``; every node is up again
    (without hint replay) and its counters are zero."""
    cluster = KeyValueCluster(ClusterConfig(**shape))
    cluster.create_namespace(NAMESPACE)
    for step in history:
        kind = step[0]
        if kind in ("down", "up"):
            node = cluster.nodes[step[1] % len(cluster.nodes)]
            node.mark_down() if kind == "down" else node.mark_up()
            continue
        try:
            if kind == "put":
                cluster.put(NAMESPACE, step[1], step[2])
            else:
                cluster.delete(NAMESPACE, step[1])
        except QuorumNotMetError:
            pass
    for node in cluster.nodes:
        node.mark_up()
    cluster.reset_stats()
    return cluster


def break_cluster(
    cluster: KeyValueCluster,
    down: Set[int],
    partitioned: Set[int],
    dropping: Set[int],
) -> None:
    """Crash ``down``, partition ``partitioned`` away, and make every
    message to ``dropping`` get lost (a flaky link at probability 1, so the
    twin's per-key draws and the batch's per-node draw agree)."""
    nodes = len(cluster.nodes)
    for node_id in {n % nodes for n in down}:
        cluster.crash_node(node_id)
    away = {n % nodes for n in partitioned}
    if away:
        cluster.network.partition([away])
    for node_id in {n % nodes for n in dropping}:
        cluster.network.set_flaky(node_id, 1.0)


def replica_contents(cluster: KeyValueCluster) -> Dict[Tuple[int, bytes], Optional[bytes]]:
    return {
        (node_id, key): store.get_record(NAMESPACE, key)
        for node_id, store in cluster.replication.stores.items()
        for key in KEYS
    }


def hint_buffers(cluster: KeyValueCluster) -> Dict[int, Dict]:
    return {
        node_id: dict(hints)
        for node_id, hints in cluster.replication._hints.items()
        if hints
    }


def node_counter(cluster: KeyValueCluster, name: str) -> List[float]:
    return [getattr(node.stats, name) for node in cluster.nodes]


@settings(max_examples=200, deadline=None)
@given(
    shape=cluster_shapes(),
    history=histories(),
    batch=batches,
    down=node_sets,
    partitioned=node_sets,
    dropping=node_sets,
    suspects=node_sets,
)
def test_write_many_agrees_with_per_key_writes(
    shape, history, batch, down, partitioned, dropping, suspects
):
    batched = build(shape, history)
    single = build(shape, history)
    for cluster in (batched, single):
        break_cluster(cluster, down, partitioned, dropping)
    before = replica_contents(batched)
    hints_before = hint_buffers(batched)

    # The twin, key by key; a key refused its quorum refuses the batch.
    existed: List[bool] = []
    stored_at: List[List[int]] = []
    hinted = 0
    unavailable: Dict[int, None] = {}
    timed_out = refused = False
    for key, value in batch:
        ahead = replica_contents(single)
        try:
            if value is None:
                result = single.delete(NAMESPACE, key, suspects=suspects)
            else:
                result = single.put(NAMESPACE, key, value, suspects=suspects)
        except QuorumNotMetError:
            refused = True
            break
        except RpcTimeoutError:
            timed_out = True
        else:
            existed.append(result.value)
            hinted += result.hinted
            unavailable.update(dict.fromkeys(result.unavailable_nodes))
        after = replica_contents(single)
        stored_at.append(sorted(
            node_id for node_id in range(len(single.nodes))
            if after[(node_id, key)] != ahead[(node_id, key)]
        ))

    if refused:
        with pytest.raises(QuorumNotMetError):
            batched.write_many(NAMESPACE, batch, 0.0, suspects)
        # Refused before anything was written, hinted or charged.
        assert replica_contents(batched) == before
        assert hint_buffers(batched) == hints_before
        assert node_counter(batched, "puts") == [0] * len(batched.nodes)
        assert batched.metrics.value("replication.hints_added") == 0
        return

    try:
        result = batched.write_many(NAMESPACE, batch, 0.0, suspects)
    except RpcTimeoutError:
        # Some key met fewer than W acks; the copies that landed stay.
        assert timed_out
    else:
        assert not timed_out
        assert result.value == existed
        assert result.keys_touched == len(batch)
        assert result.hinted == hinted
        assert result.unavailable_nodes == tuple(unavailable)
        # Each node's one RPC is its whole charged latency; a key acks at
        # the W-th fastest of the nodes that stored it, the batch at its
        # slowest key.
        charged = node_counter(batched, "total_latency_seconds")
        needed = batched.config.effective_write_quorum
        assert result.latency_seconds == max(
            sorted(charged[node_id] for node_id in nodes)[needed - 1]
            for nodes in stored_at
        )
    assert replica_contents(batched) == replica_contents(single)
    assert hint_buffers(batched) == hint_buffers(single)
    assert batched.metrics.value("replication.hints_added") == (
        single.metrics.value("replication.hints_added")
    )
    # One write RPC per node, carrying the keys the twin sent one by one.
    assert node_counter(batched, "keys_written") == node_counter(
        single, "keys_written"
    )
    assert node_counter(batched, "puts") == [
        min(1, puts) for puts in node_counter(single, "puts")
    ]


@settings(max_examples=100, deadline=None)
@given(
    shape=cluster_shapes(),
    batch=batches,
    flaky=st.dictionaries(
        st.integers(0, 3), st.sampled_from([0.3, 0.6, 1.0]), max_size=3
    ),
    network_seed=st.integers(0, 5),
)
def test_a_flaky_link_draws_once_per_node_and_hints_its_copies(
    shape, batch, flaky, network_seed
):
    cluster = build(shape, [])
    cluster.network.seed = network_seed
    shadow = NetworkModel(seed=network_seed)
    for node_id, probability in flaky.items():
        cluster.network.set_flaky(node_id % len(cluster.nodes), probability)
        shadow.set_flaky(node_id % len(cluster.nodes), probability)

    # The documented order: a node's message is drawn once, the first time
    # a key (in batch order) is sent to it.
    destinations: Dict[int, None] = {}
    for key, _ in batch:
        destinations.update(dict.fromkeys(
            cluster.replication.preference_list(NAMESPACE, key)
        ))
    dropped = {
        node_id for node_id in destinations
        if not shadow.delivers(CLIENT, node_id)
    }
    needed = cluster.config.effective_write_quorum
    short = any(
        len(set(cluster.replication.preference_list(NAMESPACE, key)) - dropped)
        < needed
        for key, _ in batch
    )
    try:
        cluster.write_many(NAMESPACE, batch, 0.0, None)
    except RpcTimeoutError:
        assert short
    else:
        assert not short
    assert cluster.network._draws == shadow._draws
    assert cluster.metrics.value("network.dropped") == len(dropped)
    # Every copy a lost message carried waits in that node's hint buffer.
    hints = hint_buffers(cluster)
    for key, _ in batch:
        for node_id in cluster.replication.preference_list(NAMESPACE, key):
            assert ((NAMESPACE, key) in hints.get(node_id, {})) == (
                node_id in dropped
            )
    assert node_counter(cluster, "puts") == [
        int(node_id in destinations and node_id not in dropped)
        for node_id in range(len(cluster.nodes))
    ]


def test_the_client_sends_a_batch_as_one_rpc_counting_every_key():
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=4, replication=3))
    cluster.create_namespace(NAMESPACE)
    client = StorageClient(cluster)
    client.put_many(NAMESPACE, [(key, b"v") for key in KEYS])
    assert (client.stats.rpcs, client.stats.operations) == (1, len(KEYS))
    assert client.stats.keys_touched == len(KEYS)
    # Every node stores some of the keys and was charged one write RPC.
    assert node_counter(cluster, "puts") == [1, 1, 1, 1]
    assert sum(node_counter(cluster, "keys_written")) == 3 * len(KEYS)

    assert client.delete_many(NAMESPACE, [KEYS[0], b"absent"]) == [True, False]
    assert (client.stats.rpcs, client.stats.operations) == (2, len(KEYS) + 2)
    assert client.get(NAMESPACE, KEYS[0]) is None
    # Empty batches send nothing.
    client.put_many(NAMESPACE, [])
    assert client.delete_many(NAMESPACE, []) == []
    assert client.stats.rpcs == 3


def test_a_one_key_batch_is_the_single_write():
    clusters = [
        KeyValueCluster(ClusterConfig(storage_nodes=4, replication=3, seed=5))
        for _ in range(2)
    ]
    clients = [StorageClient(cluster) for cluster in clusters]
    for cluster in clusters:
        cluster.create_namespace(NAMESPACE)
    clients[0].put(NAMESPACE, KEYS[0], b"value")
    clients[1].put_many(NAMESPACE, [(KEYS[0], b"value")])
    clients[0].delete(NAMESPACE, KEYS[0])
    clients[1].delete_many(NAMESPACE, [KEYS[0]])
    assert clients[0].clock.now == clients[1].clock.now
    assert clients[0].stats.metrics.counters() == (
        clients[1].stats.metrics.counters()
    )
    assert replica_contents(clusters[0]) == replica_contents(clusters[1])


@pytest.fixture
def db() -> PiqlDatabase:
    db = PiqlDatabase.simulated(DatabaseClusterConfig(storage_nodes=3, seed=11))
    db.execute_ddl(scadr_ddl(max_subscriptions=2))
    return db


def subscription(owner: str, target: str) -> Dict[str, object]:
    return {"owner": owner, "target": target, "approved": True}


def test_insert_many_counts_each_constrained_value_once(db):
    before = db.client.stats.snapshot()
    db.insert_many("subscriptions", [
        subscription("bob", "a"), subscription("bob", "b"),
        subscription("carol", "a"),
    ], upsert=True)
    spent = db.client.stats.delta(before)
    # One batched put of the records, one count per distinct owner.
    assert (spent.rpcs, spent.operations) == (3, 5)
    assert db.records.count("subscriptions") == 3


def test_insert_many_rejects_a_group_over_its_cardinality_limit(db):
    db.insert("subscriptions", subscription("carol", "a"))
    kept = db.records.scan("subscriptions")
    with pytest.raises(CardinalityViolationError):
        db.insert_many("subscriptions", [
            subscription("bob", target) for target in ("a", "b", "c")
        ], upsert=True)
    # All three were rolled back together; the table is as it was.
    assert db.records.scan("subscriptions") == kept
