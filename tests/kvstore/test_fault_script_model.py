"""Lose the *i*-th message of a request: a scripted fault plane.

``KeyValueCluster`` asks the fault plane about client→node messages in one
function (``_deliver``), and :class:`~repro.kvstore.network.NetworkModel` is
the object it asks — so a test can stand in for it.  Here ``delivers``
follows a boolean script generated by ``hypothesis`` (a flaky link can only
be set to a probability; the script picks the message), every node stays up
and reachable, and the cluster is run over generated ``(N, R, W)`` shapes
and operation sequences against a dict model of the acknowledged writes:

* a read either raises ``RpcTimeoutError`` or returns the newest
  acknowledged value (or a later write that timed out below ``W`` — its
  copies are ahead, which is allowed);
* a voided read — point, batched, range or count — leaves node counters
  and replica contents as they were;
* every write, acknowledged or timed out below ``W``, leaves hints for
  exactly the replicas it did not reach;
* ``network.dropped`` equals the number of ``False``\\ s consumed;
* a full scan sends one message to every node, in node order, and stops
  asking at the first one lost (a bounded range asks only the nodes that
  served a record);
* after heal + ``recover_node`` no acknowledged write is lost, the replicas
  agree and no hint is left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RpcTimeoutError
from repro.kvstore.cluster import ClusterConfig, KeyValueCluster
from repro.kvstore.network import NetworkModel
from repro.replication.store import decode_record

NAMESPACE = "data"
KEYS = [b"key-%02d" % index for index in range(5)]
RANGE = (b"key-", b"key-\xff")


class ScriptedNetwork(NetworkModel):
    """Every link is up; ``delivers`` answers from ``script`` (then yes)."""

    def __init__(self) -> None:
        super().__init__()
        self.script: List[bool] = []
        self.active = True
        self.asked: List[int] = []
        self.lost = 0

    def reachable(self, src: int, dst: int) -> bool:
        return True

    def delivers(self, src: int, dst: int) -> bool:
        delivered = self.script.pop(0) if self.script else True
        self.asked.append(dst)
        self.lost += not delivered
        return delivered

    def heal(self) -> None:
        self.active = False
        self.script = []


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
        seed=draw(st.integers(0, 20)),
        vnodes_per_node=8,
    )


key = st.sampled_from(KEYS)
operation = st.one_of(
    st.tuples(st.just("put"), key),
    st.tuples(st.just("delete"), key),
    st.tuples(st.just("get"), key),
    st.tuples(st.just("multi_get"), st.lists(key, min_size=1, max_size=4)),
    st.tuples(st.just("get_range")),
    st.tuples(st.just("scan")),
    st.tuples(st.just("count_range")),
)
#: One step: the operation and what happens to its first messages.
steps = st.lists(
    st.tuples(operation, st.lists(st.booleans(), max_size=4)),
    min_size=1, max_size=12,
)


class Model:
    """Per key: the newest acknowledged value, and the values of writes that
    timed out since (a read may see one: their copies are ahead)."""

    def __init__(self) -> None:
        self.acked: Dict[bytes, Optional[bytes]] = {}
        self.unacked: Dict[bytes, List[Optional[bytes]]] = {}

    def write(self, key: bytes, value: Optional[bytes], acknowledged: bool) -> None:
        if acknowledged:
            self.acked[key] = value
            self.unacked[key] = []
        else:
            self.unacked.setdefault(key, []).append(value)

    def allowed(self, key: bytes) -> Set[Optional[bytes]]:
        return {self.acked.get(key), *self.unacked.get(key, [])}


def replica_contents(cluster: KeyValueCluster) -> Dict[Tuple[int, bytes], Optional[bytes]]:
    return {
        (node_id, key): store.get_record(NAMESPACE, key)
        for node_id, store in cluster.replication.stores.items()
        for key in KEYS
    }


def hints(cluster: KeyValueCluster) -> Dict[Tuple[int, bytes], bytes]:
    return {
        (node_id, key): record
        for node_id, buffered in cluster.replication._hints.items()
        for (_, key), record in buffered.items()
    }


def node_counters(cluster: KeyValueCluster) -> List[Dict[str, float]]:
    return [node.stats.metrics.counters() for node in cluster.nodes]


@settings(max_examples=120, deadline=None)
@given(shape=cluster_shapes(), steps=steps)
def test_scripted_message_loss_against_the_acknowledged_writes(shape, steps):
    cluster = KeyValueCluster(ClusterConfig(**shape))
    cluster.create_namespace(NAMESPACE)
    network = cluster.network = ScriptedNetwork()
    model = Model()
    written = 0

    for (kind, *args), script in steps:
        network.script = list(script)
        network.asked = []
        stored, hinted = replica_contents(cluster), hints(cluster)
        counters = node_counters(cluster)
        if kind in ("put", "delete"):
            (key,) = args
            written += 1
            value = b"value-%d" % written if kind == "put" else None
            try:
                if kind == "put":
                    cluster.put(NAMESPACE, key, value)
                else:
                    cluster.delete(NAMESPACE, key)
            except RpcTimeoutError:
                acknowledged = False
            else:
                acknowledged = True
            model.write(key, value, acknowledged)
            # The copy went to each replica exactly once: stored, or hinted.
            now_stored, now_hinted = replica_contents(cluster), hints(cluster)
            reached = 0
            for node_id in cluster.replication.preference_list(NAMESPACE, key):
                slot = (node_id, key)
                if now_stored[slot] != stored[slot]:
                    reached += 1
                    assert decode_record(now_stored[slot])[1] == value
                    assert now_hinted.get(slot) == hinted.get(slot)
                else:
                    assert now_hinted[slot] != hinted.get(slot)
                    assert decode_record(now_hinted[slot])[1] == value
            assert acknowledged == (reached >= shape["write_quorum"])
            continue
        try:
            if kind == "get":
                (key,) = args
                assert cluster.get(NAMESPACE, key).value in model.allowed(key)
            elif kind == "multi_get":
                (keys,) = args
                values = cluster.multi_get(NAMESPACE, keys).value
                for key, value in zip(keys, values):
                    assert value in model.allowed(key)
            elif kind in ("get_range", "scan"):
                bounds = RANGE if kind == "get_range" else (None, None)
                found = dict(cluster.get_range(NAMESPACE, *bounds).value)
                for key in KEYS:
                    assert found.get(key) in model.allowed(key)
            else:
                count = cluster.count_range(NAMESPACE, *RANGE).value
                live = [
                    {value is not None for value in model.allowed(key)}
                    for key in KEYS
                ]
                assert (
                    sum(states == {True} for states in live)
                    <= count
                    <= sum(True in states for states in live)
                )
        except RpcTimeoutError:
            # A lost reply means the coordinator learned nothing.
            assert replica_contents(cluster) == stored
            assert hints(cluster) == hinted
            assert node_counters(cluster) == counters
        if kind == "scan":
            # One message per partition, drawn in node order up to the
            # first one lost.
            sent = script.index(False) + 1 if False in script else None
            assert network.asked == list(range(shape["storage_nodes"]))[:sent]
        assert cluster.metrics.value("network.dropped") == network.lost

    network.heal()
    for node in cluster.nodes:
        cluster.recover_node(node.node_id)
    assert [cluster.replication.hint_count(n.node_id) for n in cluster.nodes] == [
        0
    ] * len(cluster.nodes)
    final = replica_contents(cluster)
    for key in KEYS:
        copies = {
            final[(node_id, key)]
            for node_id in cluster.replication.preference_list(NAMESPACE, key)
        }
        assert len(copies) == 1
        assert cluster.peek(NAMESPACE, key) in model.allowed(key)
        assert cluster.get(NAMESPACE, key).value == cluster.peek(NAMESPACE, key)
