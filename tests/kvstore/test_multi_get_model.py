"""Batched quorum reads against the per-key read, on generated clusters.

``KeyValueCluster.multi_get`` routes a whole batch against one serving set,
resolves every key in one pass and charges one RPC per involved node.  The
definition it must keep is the single-key ``get``: on a twin cluster built
from the same history, reading the keys one by one must give the same
values, repairs, unavailable replicas, keys charged per node and — after
read repair — the same replica contents.  Histories are applied while
replicas are down and revived *without* hint replay, so stale, missing and
tombstoned copies exist; the read then runs with crashed and
partitioned-away nodes and a ``suspects`` set.

The routing itself is checked against the per-key algorithm spelled out in
this file (crc rotation of the ring's preference list, availability asked
per replica), which is also the oracle for the flaky-link draw order.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuorumNotMetError, RpcTimeoutError
from repro.kvstore.cluster import ClusterConfig, KeyValueCluster
from repro.kvstore.network import CLIENT, NetworkModel
from repro.replication.ring import leading_length, placement_token
from repro.replication.store import decode_record, record_seq
from repro.schema.keys import encode_key

NAMESPACE = "data"
KEYS = [b"key-%02d" % index for index in range(6)]

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
    """Episodes of writes, each with one node down meanwhile (-1: none)."""
    key = st.sampled_from(KEYS)
    write = st.one_of(
        st.tuples(st.just("put"), key, st.binary(min_size=0, max_size=24)),
        st.tuples(st.just("delete"), key),
    )
    episode = st.tuples(
        st.integers(-1, 3), st.lists(write, min_size=1, max_size=8)
    )

    def flatten(episodes) -> List[Step]:
        steps: List[Step] = []
        for down, writes in episodes:
            if down < 0:
                steps += writes
            else:
                steps += [("down", down), *writes, ("up", down)]
        return steps

    return st.lists(episode, min_size=1, max_size=6).map(flatten)


def build(shape: Dict[str, int], history: Sequence[Step]) -> KeyValueCluster:
    """A cluster that lived through ``history``; every node ends up again.

    Nodes come back with ``mark_up`` — no hint replay, no anti-entropy — so
    whatever they missed while down stays missed until a read repairs it.
    Writes that cannot meet their quorum are refused, identically on every
    cluster built from the same history.
    """
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
    cluster: KeyValueCluster, down: Set[int], partitioned: Set[int]
) -> None:
    nodes = len(cluster.nodes)
    for node_id in {n % nodes for n in down}:
        cluster.crash_node(node_id)
    away = {n % nodes for n in partitioned}
    if away:
        cluster.network.partition([away])


def replica_contents(cluster: KeyValueCluster) -> Dict[Tuple[int, bytes], Optional[bytes]]:
    return {
        (node_id, key): store.get_record(NAMESPACE, key)
        for node_id, store in cluster.replication.stores.items()
        for key in KEYS
    }


def node_counters(cluster: KeyValueCluster, name: str) -> List[int]:
    return [int(getattr(node.stats, name)) for node in cluster.nodes]


def reference_rotation(cluster: KeyValueCluster, key: bytes) -> List[int]:
    """The read order of a key's replicas, computed from nothing cached."""
    prefs = cluster.replication.ring.preference_list(
        placement_token(NAMESPACE, key), cluster.config.replication
    )
    if len(prefs) <= 1:
        return prefs
    digest = zlib.crc32(NAMESPACE.encode("utf-8") + b"\x00" + key)
    salt = cluster.config.seed & 0xFFFFFFFF
    offset = zlib.crc32(key, digest ^ salt) % len(prefs)
    return prefs[offset:] + prefs[:offset]


def reference_read_replicas(
    cluster: KeyValueCluster, key: bytes, suspects: Set[int]
) -> Optional[List[int]]:
    """The per-key replica choice: availability asked replica by replica,
    suspects demoted only while the quorum holds without them.  ``None``
    when the quorum cannot be met."""
    needed = cluster.config.effective_read_quorum
    chosen = [
        node_id
        for node_id in reference_rotation(cluster, key)
        if cluster.nodes[node_id].up
        and cluster.network.reachable(CLIENT, node_id)
    ]
    if suspects and len(chosen) > needed:
        healthy = [n for n in chosen if n not in suspects]
        if len(healthy) >= needed:
            chosen = healthy + [n for n in chosen if n in suspects]
    return chosen[:needed] if len(chosen) >= needed else None


node_sets = st.sets(st.integers(0, 3), max_size=1)
key_batches = st.lists(st.sampled_from(KEYS), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    shape=cluster_shapes(),
    history=histories(),
    keys=key_batches,
    down=node_sets,
    partitioned=node_sets,
    suspects=node_sets,
)
def test_multi_get_agrees_with_per_key_get(
    shape, history, keys, down, partitioned, suspects
):
    batched = build(shape, history)
    single = build(shape, history)
    assert replica_contents(batched) == replica_contents(single)
    for cluster in (batched, single):
        break_cluster(cluster, down, partitioned)

    expected = []
    refused = False
    for key in keys:
        try:
            expected.append(single.get(NAMESPACE, key, suspects=suspects))
        except QuorumNotMetError:
            refused = True
            break

    if refused:
        before = replica_contents(batched)
        try:
            batched.multi_get(NAMESPACE, keys, suspects=suspects)
        except QuorumNotMetError:
            pass
        else:
            raise AssertionError("the batch met a quorum its keys cannot")
        # Refused before any charge or repair.
        assert replica_contents(batched) == before
        for name in ("gets", "keys_read", "puts", "keys_written"):
            assert node_counters(batched, name) == [0] * len(batched.nodes)
        return

    before = replica_contents(batched)
    result = batched.multi_get(NAMESPACE, keys, suspects=suspects)
    assert result.value == [r.value for r in expected]
    assert result.keys_touched == len(keys)
    assert result.repaired == sum(r.repaired for r in expected)
    assert result.unavailable_nodes == tuple(
        dict.fromkeys(n for r in expected for n in r.unavailable_nodes)
    )
    # The batch sends each involved node one read RPC (and one repair RPC)
    # carrying what the single reads sent it key by key.
    assert node_counters(batched, "keys_read") == node_counters(single, "gets")
    assert node_counters(batched, "gets") == [
        min(1, gets) for gets in node_counters(single, "gets")
    ]
    assert node_counters(batched, "keys_written") == node_counters(
        single, "keys_written"
    )
    assert node_counters(batched, "puts") == [
        min(1, puts) for puts in node_counters(single, "puts")
    ]
    assert replica_contents(batched) == replica_contents(single)
    # Both read paths share their resolution code, so check it against the
    # definition too: over the replicas the per-key algorithm chooses, the
    # newest sequence wins, a tombstone reads as absent, and every chosen
    # replica that was behind now holds the newest record.
    routed = [0] * len(batched.nodes)
    after = dict(before)
    for key, value in zip(keys, result.value):
        chosen = reference_read_replicas(batched, key, suspects)
        for node_id in chosen:
            routed[node_id] += 1
        newest = max(
            (before[(node_id, key)] for node_id in chosen),
            key=record_seq,
        )
        assert value == (None if newest is None else decode_record(newest)[1])
        if newest is not None:
            for node_id in chosen:
                after[(node_id, key)] = newest
    assert node_counters(batched, "keys_read") == routed
    assert replica_contents(batched) == after
    assert result.repaired == sum(
        1 for slot, record in after.items() if record != before[slot]
    )


@settings(max_examples=100, deadline=None)
@given(
    shape=cluster_shapes(),
    history=histories(),
    keys=key_batches,
    down=node_sets,
    flaky=st.dictionaries(
        st.integers(0, 3), st.sampled_from([0.3, 0.6, 1.0]), max_size=3
    ),
    network_seed=st.integers(0, 5),
)
def test_flaky_link_draws_once_per_node_in_key_order(
    shape, history, keys, down, flaky, network_seed
):
    cluster = build(shape, history)
    break_cluster(cluster, down, set())
    cluster.network.seed = network_seed
    shadow = NetworkModel(seed=network_seed)
    for node_id, probability in flaky.items():
        cluster.network.set_flaky(node_id % len(cluster.nodes), probability)
        shadow.set_flaky(node_id % len(cluster.nodes), probability)

    # The documented order: keys in request order; a node's delivery is
    # drawn the first time a key chooses it; the first key with a dropped
    # replica times the batch out; a key without a quorum refuses it.
    outcome: Optional[type] = None
    drawn: Set[int] = set()
    dropped: Set[int] = set()
    for key in keys:
        chosen = reference_read_replicas(cluster, key, set())
        if chosen is None:
            outcome = QuorumNotMetError
            break
        for node_id in chosen:
            if node_id not in drawn:
                drawn.add(node_id)
                if not shadow.delivers(CLIENT, node_id):
                    dropped.add(node_id)
        if dropped.intersection(chosen):
            outcome = RpcTimeoutError
            break

    before = replica_contents(cluster)
    try:
        result = cluster.multi_get(NAMESPACE, keys)
    except (QuorumNotMetError, RpcTimeoutError) as exc:
        assert type(exc) is outcome
        if outcome is RpcTimeoutError:
            assert exc.node_id in dropped
        # A lost reply means the coordinator learned nothing.
        assert replica_contents(cluster) == before
        assert node_counters(cluster, "gets") == [0] * len(cluster.nodes)
    else:
        assert outcome is None
        assert len(result.value) == len(keys)
    assert cluster.network._draws == shadow._draws
    assert cluster.network.dropped_messages == shadow.dropped_messages


#: Encoded keys of one to three fields: their first values (and so their
#: cuts) vary in type and length.
encoded_keys = st.lists(
    st.one_of(st.text(max_size=6), st.integers(-(2**40), 2**40)),
    min_size=1,
    max_size=3,
).map(encode_key)


@settings(max_examples=40, deadline=None)
@given(
    shape=cluster_shapes(),
    raw=st.lists(st.binary(max_size=12), max_size=30),
    encoded=st.lists(encoded_keys, max_size=20),
)
def test_cached_rotation_equals_the_uncached_function(shape, raw, encoded):
    cluster = KeyValueCluster(ClusterConfig(**shape))
    cluster.create_namespace(NAMESPACE)
    replication = cluster.replication
    keys = raw + encoded

    def check() -> None:
        for index, key in enumerate(keys):
            expected = reference_rotation(cluster, key)
            cut = leading_length(key)
            group = (key[:cut], expected) if cut else None
            # Every other key is first read by ``range_group``; the rest
            # are asked after their first read.  Keys of one placement and
            # rotation but different cuts must not share a cut.
            if index % 2:
                assert replication.range_group(NAMESPACE, key, key + b"\xff") == group
            # First call fills the placement cache, the second is served
            # from it; the preference list shares the entry.
            assert replication.read_preference(NAMESPACE, key) == expected
            assert replication.read_preference(NAMESPACE, key) == expected
            assert sorted(replication.preference_list(NAMESPACE, key)) == sorted(
                expected
            )
            assert replication.range_group(NAMESPACE, key, key + b"\xff") == group

    check()
    cluster.add_node()
    check()
    cluster.remove_node()
    check()
