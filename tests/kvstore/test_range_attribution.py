"""Which node a range request merges, serves and charges.

The ring places an encoded key by its first value, so every key of one
owner lives on one replica group.  A bounded range inside one leading
value merges only that group's live replicas and is served and billed, row
for row, at one of them: with no request queues installed, as here, the
first of them in the read order of the range's start key
(``ReplicationManager.read_preference``; ``test_least_backlog.py`` covers
the queued case); nodes outside the group see no range request.  The rows of a bounded range come from the merge memo after
the first read, so each request is made twice: once on a memo miss and
once on a hit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.errors import UnavailableError
from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.schema.keys import encode_key, prefix_range

NAMESPACE = "data"
OWNERS = ("alice", "bob", "carol", "dave")
ROWS_PER_OWNER = 12


def _cluster() -> KeyValueCluster:
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=5, replication=2, seed=5))
    cluster.create_namespace(NAMESPACE)
    for owner in OWNERS:
        for number in range(ROWS_PER_OWNER):
            cluster.load(NAMESPACE, encode_key((owner, number)), b"v%d" % number)
    return cluster


def _range_charges(cluster: KeyValueCluster) -> Dict[int, Tuple[int, int]]:
    """``node -> (range requests, range rows)`` for every node charged."""
    return {
        node.node_id: (node.stats.range_requests, node.stats.range_rows)
        for node in cluster.nodes
        if node.stats.range_requests
    }


def _group(cluster: KeyValueCluster, start: bytes) -> List[int]:
    return list(cluster.replication.read_preference(NAMESPACE, start))


def _fallbacks(cluster: KeyValueCluster) -> float:
    return cluster.metrics.value("replication.range_fallbacks")


def test_an_owners_keys_share_one_replica_group():
    cluster = _cluster()
    for owner in OWNERS:
        start, _ = prefix_range((owner,))
        group = sorted(_group(cluster, start))
        for number in range(ROWS_PER_OWNER):
            key = encode_key((owner, number))
            assert sorted(cluster.replication.preference_list(NAMESPACE, key)) == group


def test_get_range_is_served_by_the_first_live_replica_of_its_group():
    cluster = _cluster()
    start, end = prefix_range(("alice",))
    first, second = _group(cluster, start)
    for reads in (1, 2):  # a memo miss, then a hit
        result = cluster.get_range(NAMESPACE, start, end, 5)
        assert [key for key, _ in result.value] == [
            encode_key(("alice", number)) for number in range(5)
        ]
        assert result.node_id == first
        assert _range_charges(cluster) == {first: (reads, 5 * reads)}
    # With that replica down, the group's next live replica takes the range,
    # and the skipped replica goes back to the client as breaker evidence.
    cluster.crash_node(first)
    for reads in (1, 2):
        result = cluster.get_range(NAMESPACE, start, end, 5)
        assert result.node_id == second
        assert result.unavailable_nodes == (first,)
        assert _range_charges(cluster) == {
            first: (2, 10), second: (reads, 5 * reads),
        }
    assert _fallbacks(cluster) == 0


def test_multi_get_range_serves_each_range_at_its_own_group():
    cluster = _cluster()
    first_range = (*prefix_range(("alice",)), 5, True)
    second_range = (*prefix_range(("carol",)), 3, False)
    servers = [_group(cluster, first_range[0])[0], _group(cluster, second_range[0])[0]]
    for batches in (1, 2):  # memo misses, then hits
        result = cluster.multi_get_range(NAMESPACE, [first_range, second_range])
        assert [len(rows) for rows in result.value] == [5, 3]
        assert result.value[1][0][0] == encode_key(("carol", ROWS_PER_OWNER - 1))
        expected: Dict[int, Tuple[int, int]] = {}
        for server, rows in zip(servers, (5, 3)):
            requests, total = expected.get(server, (0, 0))
            expected[server] = (requests + batches, total + rows * batches)
        assert _range_charges(cluster) == expected
    assert _fallbacks(cluster) == 0


def test_an_empty_group_range_probes_the_same_replica():
    cluster = _cluster()
    start, end = prefix_range(("zed",))
    result = cluster.get_range(NAMESPACE, start, end, 5)
    assert result.value == []
    first = _group(cluster, start)[0]
    assert result.node_id == first
    assert _range_charges(cluster) == {first: (1, 0)}


def test_a_group_range_needs_only_its_group():
    cluster = _cluster()
    start, end = prefix_range(("bob",))
    group = _group(cluster, start)
    outside = [node.node_id for node in cluster.nodes if node.node_id not in group]
    # As many nodes down as there are replicas: an all-node merge refuses,
    # but none of them holds a key of this group.
    for node_id in outside[:2]:
        cluster.crash_node(node_id)
    result = cluster.get_range(NAMESPACE, start, end, 20)
    assert len(result.value) == ROWS_PER_OWNER
    assert result.unavailable_nodes == ()
    assert cluster.count_range(NAMESPACE, start, end).value == ROWS_PER_OWNER
    assert cluster.count_range(NAMESPACE, start, end).node_id == group[0]
    # With the whole group down the range raises before anything is charged.
    for node_id in group:
        cluster.crash_node(node_id)
    before = _range_charges(cluster)
    with pytest.raises(UnavailableError):
        cluster.get_range(NAMESPACE, start, end, 20)
    with pytest.raises(UnavailableError):
        cluster.multi_get_range(NAMESPACE, [(start, end, 20, True)])
    assert _range_charges(cluster) == before


def test_a_raw_key_range_merges_every_node_and_bills_the_last():
    """Raw keys (not encoded tuples) place whole, so a bounded range over
    them may span every node: it merges all of them and is billed to the
    last live one.  No SQL plan issues such a range; whether the compiler
    may admit one with no equality-bound leading column is ROADMAP item
    10's open question."""
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=3, replication=3, seed=5))
    cluster.create_namespace(NAMESPACE)
    for index in range(50):
        cluster.load(NAMESPACE, b"k%03d" % index, b"v%d" % index)
    for reads in (1, 2):  # a memo miss, then a hit
        result = cluster.get_range(NAMESPACE, b"k010", b"k020", 5)
        assert len(result.value) == 5
        assert result.node_id == 2
        assert _range_charges(cluster) == {2: (reads, 5 * reads)}
    assert _fallbacks(cluster) == 2
