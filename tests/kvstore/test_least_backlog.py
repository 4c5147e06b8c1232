"""Where a read is served once request queues are installed.

``repro.kvstore.cluster._Backlogs.least`` sends each read to the candidate
replica whose request queue has the least backlog at the read's simulated
time, ties going to the key's read order
(``ReplicationManager.read_preference``).  Each node is asked once per
request, and a one-replica read whose first replica has no backlog asks no
other.  A range's replica is chosen after its merge, so the merge memo's
entry (node ids in read order) is the same whichever replica serves.  The queues here are stubs with a fixed backlog
that count how often they are asked.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.schema.keys import encode_key, prefix_range

NAMESPACE = "data"
OWNERS = ("alice", "bob", "carol", "dave")
ROWS_PER_OWNER = 12


class StubQueue:
    """A request queue that charges no wait and reports a fixed backlog."""

    def __init__(self, backlog: float = 0.0):
        self.backlog = backlog
        self.asked: List[float] = []

    def on_request(self, sim_time: float, service_seconds: float) -> float:
        return 0.0

    def backlog_seconds(self, now: float) -> float:
        self.asked.append(now)
        return self.backlog


def _cluster(replication: int = 2, read_quorum: int = 1) -> KeyValueCluster:
    cluster = KeyValueCluster(ClusterConfig(
        storage_nodes=5, replication=replication, read_quorum=read_quorum,
        seed=5,
    ))
    cluster.create_namespace(NAMESPACE)
    for owner in OWNERS:
        for number in range(ROWS_PER_OWNER):
            cluster.load(NAMESPACE, encode_key((owner, number)), b"v%d" % number)
    return cluster


def _queues(cluster: KeyValueCluster, backlogs: Dict[int, float]) -> List[StubQueue]:
    """Install a stub queue on every node (backlog 0 unless given)."""
    queues = [StubQueue(backlogs.get(node.node_id, 0.0)) for node in cluster.nodes]
    for node, queue in zip(cluster.nodes, queues):
        node.request_queue = queue
    return queues


def _order(cluster: KeyValueCluster, key: bytes) -> List[int]:
    return list(cluster.replication.read_preference(NAMESPACE, key))


def _charges(cluster: KeyValueCluster, counter: str) -> Dict[int, int]:
    return {
        node.node_id: getattr(node.stats, counter)
        for node in cluster.nodes
        if getattr(node.stats, counter)
    }


def _memo_keys(cluster: KeyValueCluster) -> Dict[bytes, List[Tuple]]:
    return {
        lead: sorted(entries)
        for lead, entries in cluster.replication._range_memos[NAMESPACE].items()
    }


def test_a_range_is_served_and_billed_at_the_replica_without_backlog():
    cluster = _cluster()
    start, end = prefix_range(("alice",))
    first, second = _order(cluster, start)
    queues = _queues(cluster, {first: 0.3})
    for reads in (1, 2):  # a memo miss, then a hit
        result = cluster.get_range(NAMESPACE, start, end, 5, sim_time=4.0)
        assert len(result.value) == 5
        assert result.node_id == second
        assert _charges(cluster, "range_requests") == {second: reads}
        assert _charges(cluster, "range_rows") == {second: 5 * reads}
    # One question per node per request, at the request's time.
    assert queues[first].asked == [4.0, 4.0]
    assert queues[second].asked == [4.0, 4.0]


def test_a_range_keeps_read_order_without_queues_or_backlog():
    start, end = prefix_range(("alice",))
    plain = _cluster()
    first, second = _order(plain, start)
    assert plain.get_range(NAMESPACE, start, end, 5).node_id == first
    drained = _cluster()
    queues = _queues(drained, {})
    assert drained.get_range(NAMESPACE, start, end, 5).node_id == first
    # The first replica has no backlog: the second is not asked at all.
    assert queues[first].asked == [0.0]
    assert queues[second].asked == []
    # An equal backlog is a tie, and a tie goes to read order.
    tied = _cluster()
    _queues(tied, {first: 0.2, second: 0.2})
    assert tied.get_range(NAMESPACE, start, end, 5).node_id == first


def test_the_memo_entry_does_not_depend_on_the_serving_replica():
    start, end = prefix_range(("bob",))
    plain = _cluster()
    plain.get_range(NAMESPACE, start, end, 5)
    queued = _cluster()
    first, second = _order(queued, start)
    _queues(queued, {first: 0.5})
    result = queued.get_range(NAMESPACE, start, end, 5)
    assert result.node_id == second
    assert _memo_keys(queued) == _memo_keys(plain)
    (entry,) = next(iter(_memo_keys(queued).values()))
    assert entry[-1] == (first, second)
    # The other replica wins once its backlog is the larger one, and the
    # read is a hit on the same entry.
    queued.nodes[second].request_queue.backlog = 0.9
    assert queued.get_range(NAMESPACE, start, end, 5).node_id == first
    assert _memo_keys(queued) == _memo_keys(plain)


def test_an_empty_range_probes_the_replica_without_backlog():
    cluster = _cluster()
    start, end = prefix_range(("zed",))
    first, second = _order(cluster, start)
    _queues(cluster, {first: 0.1})
    result = cluster.get_range(NAMESPACE, start, end, 5)
    assert result.value == []
    assert result.node_id == second
    assert _charges(cluster, "range_requests") == {second: 1}


def test_a_filtered_range_is_billed_at_the_replica_without_backlog():
    cluster = _cluster()
    start, end = prefix_range(("carol",))
    first, second = _order(cluster, start)
    _queues(cluster, {first: 0.1})
    result = cluster.get_range(
        NAMESPACE, start, end, 6, record_filter=lambda key, value: value == b"v2",
    )
    assert result.value == [(encode_key(("carol", 2)), b"v2")]
    assert result.node_id == second
    assert _charges(cluster, "range_requests") == {second: 1}
    assert _charges(cluster, "keys_filtered") == {second: 5}


def test_multi_get_range_asks_each_node_once_for_the_batch():
    cluster = _cluster()
    ranges = [
        (*prefix_range((owner,)), 3, True) for owner in OWNERS for _ in range(2)
    ]
    firsts = {owner: _order(cluster, prefix_range((owner,))[0]) for owner in OWNERS}
    busy = {order[0]: 0.2 for order in firsts.values()}
    queues = _queues(cluster, busy)
    result = cluster.multi_get_range(NAMESPACE, ranges, sim_time=2.0)
    assert [len(rows) for rows in result.value] == [3] * len(ranges)
    expected: Dict[int, int] = {}
    for owner in OWNERS:
        served = min(firsts[owner], key=lambda nid: (busy.get(nid, 0.0),
                                                     firsts[owner].index(nid)))
        expected[served] = expected.get(served, 0) + 2
    assert _charges(cluster, "range_requests") == expected
    assert all(len(queue.asked) <= 1 for queue in queues)


def test_a_get_is_served_at_the_replica_without_backlog():
    cluster = _cluster()
    key = encode_key(("dave", 3))
    first, second = _order(cluster, key)
    queues = _queues(cluster, {first: 0.05})
    result = cluster.get(NAMESPACE, key, sim_time=1.5)
    assert result.value == b"v3"
    assert result.node_id == second
    assert _charges(cluster, "gets") == {second: 1}
    assert queues[first].asked == [1.5]
    assert queues[second].asked == [1.5]
    # Without the backlog, read order again, and only the first is asked.
    queues[first].backlog = 0.0
    assert cluster.get(NAMESPACE, key, sim_time=1.6).node_id == first
    assert queues[second].asked == [1.5]


def test_each_key_of_a_multi_get_goes_to_its_least_backlog_replica():
    cluster = _cluster()
    keys = [encode_key((owner, number)) for owner in OWNERS for number in (0, 5, 9)]
    keys.append(b"raw-key")  # a raw key places whole, on its own group
    busy = {0: 0.4, 2: 0.1, 3: 0.1}
    queues = _queues(cluster, busy)
    result = cluster.multi_get(NAMESPACE, keys, sim_time=3.0)
    assert result.value[:-1] == [b"v0", b"v5", b"v9"] * len(OWNERS)
    expected: Dict[int, int] = {}
    for key in keys:
        order = _order(cluster, key)
        served = min(order, key=lambda nid: (busy.get(nid, 0.0), order.index(nid)))
        expected[served] = expected.get(served, 0) + 1
    assert _charges(cluster, "keys_read") == expected
    # One snapshot per node for the whole batch.
    assert all(queue.asked in ([], [3.0]) for queue in queues)


def test_a_serial_multi_get_shares_the_snapshot():
    cluster = _cluster()
    keys = [encode_key(("alice", number)) for number in range(ROWS_PER_OWNER)]
    first, second = _order(cluster, keys[0])
    queues = _queues(cluster, {first: 0.3})
    cluster.multi_get(NAMESPACE, keys, parallel=False)
    assert _charges(cluster, "gets") == {second: ROWS_PER_OWNER}
    assert all(len(queue.asked) <= 1 for queue in queues)


def test_a_quorum_read_takes_the_r_replicas_with_the_least_backlog():
    cluster = _cluster(replication=3, read_quorum=2)
    key = encode_key(("bob", 1))
    first, second, third = _order(cluster, key)
    _queues(cluster, {first: 0.2, second: 0.1})
    cluster.get(NAMESPACE, key)
    assert _charges(cluster, "gets") == {second: 1, third: 1}
    plain = _cluster(replication=3, read_quorum=2)
    plain.get(NAMESPACE, key)
    assert _charges(plain, "gets") == {first: 1, second: 1}
    # The first two have no backlog: read order, and the third not asked.
    drained = _cluster(replication=3, read_quorum=2)
    queues = _queues(drained, {third: 0.3})
    drained.get(NAMESPACE, key)
    assert _charges(drained, "gets") == {first: 1, second: 1}
    assert queues[third].asked == []


def test_a_down_replica_is_never_chosen_however_idle():
    cluster = _cluster()
    key = encode_key(("carol", 4))
    first, second = _order(cluster, key)
    queues = _queues(cluster, {second: 0.5})
    cluster.crash_node(first)
    result = cluster.get(NAMESPACE, key)
    assert result.node_id == second
    assert result.unavailable_nodes == (first,)
    # One eligible replica: nothing to choose, nobody asked.
    assert queues[first].asked == queues[second].asked == []
