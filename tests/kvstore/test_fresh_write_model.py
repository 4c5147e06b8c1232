"""Fresh writes against the checked write, on generated clusters.

The coordinator stores a record it has just sequenced with
``ReplicaStore.write_fresh`` — no read of what the replica holds — on the
strength of one invariant: sequence numbers come from a single monotone
counter, so that record is newer than anything stored.  The definition it
must keep is ``ReplicaStore.apply_record``, the checked newest-wins write.

Each history runs on two clusters: the real one, and a twin whose every
fresh write goes through ``apply_record`` instead (and must be *applied* —
a refused fresh write would be an acknowledged write silently lost).
Histories write through every door — quorum ``put``/``delete``/
``test_and_set`` and the latency-free ``load``/``load_delete`` — while a
replica is down, revive it without hint replay (stale and missing copies),
drop messages on flaky links (hinted, unacknowledged copies), and then
repair through every checked path: hint replay, anti-entropy, read repair,
rebalance onto a new node.  After every step the replicas of both clusters
hold the same bytes, and over the whole history the checked paths returned
the same verdict for the same record at the same replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuorumNotMetError, RpcTimeoutError
from repro.kvstore.cluster import ClusterConfig, KeyValueCluster
from repro.replication.store import record_seq

NAMESPACE = "data"
KEYS = [b"key-%02d" % index for index in range(4)]

#: ``(node, namespace, key, sequence, applied?)`` of one checked write.
Verdict = Tuple[int, str, bytes, int, bool]


@st.composite
def cluster_shapes(draw) -> Dict[str, int]:
    nodes = draw(st.integers(2, 4))
    replication = draw(st.integers(1, min(3, nodes)))
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


_key = st.sampled_from(KEYS)
_value = st.binary(max_size=12)
_node = st.integers(0, 3)
_write = st.one_of(
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("test_and_set"), _key, _value),
    st.tuples(st.just("load"), _key, _value),
    st.tuples(st.just("load_delete"), _key),
)
_between = st.one_of(
    st.tuples(st.just("read"), _key),  # quorum read: read repair
    st.tuples(st.just("recover"), _node),  # hint replay + anti-entropy
    st.tuples(st.just("flaky"), _node, st.sampled_from([0.0, 0.4, 1.0])),
    st.tuples(st.just("add_node")),
)
#: Writes with one node down meanwhile (-1: none); the node then comes back
#: with what it had ("revive": hints stay queued), is recovered, or stays down.
_episode = st.tuples(
    st.integers(-1, 3),
    st.lists(_write, min_size=1, max_size=6),
    st.sampled_from(["revive", "revive", "recover", "stay"]),
    st.lists(_between, max_size=2),
)


def _flatten(episodes) -> List[Tuple]:
    history: List[Tuple] = []
    for down, writes, ending, between in episodes:
        if down < 0:
            history += writes
        else:
            history += [("down", down), *writes]
            if ending != "stay":
                history.append((ending, down))
        history += between
    return history


steps = st.lists(_episode, min_size=1, max_size=8).map(_flatten)


def log_checked_writes(cluster: KeyValueCluster, log: List[Verdict]) -> None:
    """Record the verdict of every ``apply_record`` call, per replica."""

    def wrap(node_id: int, store) -> None:
        apply = store.apply_record

        def logged(namespace: str, key: bytes, record: bytes) -> bool:
            applied = apply(namespace, key, record)
            log.append((node_id, namespace, key, record_seq(record), applied))
            return applied

        store.apply_record = logged

    for node_id, store in cluster.replication.stores.items():
        if "apply_record" not in vars(store):
            wrap(node_id, store)


def keep_the_checked_write(cluster: KeyValueCluster) -> None:
    """Turn a cluster into the twin: fresh writes go through the check."""

    def wrap(store) -> None:
        apply = store.apply_record  # the unlogged method: not a repair verdict

        def checked(namespace: str, key: bytes, record: bytes) -> None:
            assert apply(namespace, key, record), (
                "a record the coordinator had just sequenced lost to a stored one"
            )

        store.write_fresh = checked

    for store in cluster.replication.stores.values():
        if "write_fresh" not in vars(store):
            wrap(store)


def replica_contents(cluster: KeyValueCluster) -> Dict[Tuple[int, bytes], Optional[bytes]]:
    return {
        (node_id, key): store.get_record(NAMESPACE, key)
        for node_id, store in cluster.replication.stores.items()
        for key in KEYS
    }


def revive(cluster: KeyValueCluster, node_id: int) -> None:
    """Bring a crashed node back with what it had: no replay, no repair."""
    node = cluster.nodes[node_id]
    if not node.up:
        if cluster.engine(node_id).durable:
            cluster.engine(node_id).recover()
        node.mark_up()


def add_node_and_summarise_the_rebalance(cluster: KeyValueCluster) -> str:
    """Grow the cluster; the summary of the rebalance pass it ran."""
    manager = cluster.replication
    rebalance = manager.rebalance
    reports = []
    manager.rebalance = lambda *args: reports.append(rebalance(*args)) or reports[-1]
    try:
        cluster.add_node()
    finally:
        del manager.rebalance
    (report,) = reports
    return report.summary()


def apply_step(cluster: KeyValueCluster, step) -> object:
    """Run one step; the outcome (value or exception type) is compared."""
    kind = step[0]
    nodes = len(cluster.nodes)
    try:
        if kind == "put":
            cluster.put(NAMESPACE, step[1], step[2])
        elif kind == "delete":
            cluster.delete(NAMESPACE, step[1])
        elif kind == "test_and_set":
            current = cluster.get(NAMESPACE, step[1]).value
            return cluster.test_and_set(NAMESPACE, step[1], current, step[2]).value
        elif kind == "load":
            cluster.load(NAMESPACE, step[1], step[2])
        elif kind == "load_delete":
            cluster.load_delete(NAMESPACE, step[1])
        elif kind == "down":
            if cluster.nodes[step[1] % nodes].up:
                cluster.crash_node(step[1] % nodes)
        elif kind == "revive":
            revive(cluster, step[1] % nodes)
        elif kind == "recover":
            if cluster.nodes[step[1] % nodes].up:
                cluster.crash_node(step[1] % nodes)
            return cluster.recover_node(step[1] % nodes).summary()
        elif kind == "flaky":
            cluster.network.set_flaky(step[1] % nodes, step[2])
        elif kind == "read":
            return cluster.get(NAMESPACE, step[1]).value
        elif kind == "add_node" and nodes < 5:
            return add_node_and_summarise_the_rebalance(cluster)
    except (QuorumNotMetError, RpcTimeoutError) as error:
        return type(error)
    return None


def run_pair(shape: Dict[str, int], history, **config) -> None:
    real = KeyValueCluster(ClusterConfig(**shape, **config.get("real", {})))
    twin = KeyValueCluster(ClusterConfig(**shape, **config.get("twin", {})))
    try:
        real_log: List[Verdict] = []
        twin_log: List[Verdict] = []
        for cluster in (real, twin):
            cluster.create_namespace(NAMESPACE)
        for step in history:
            # add_node attaches a store mid-history: wrap whatever is new.
            keep_the_checked_write(twin)
            log_checked_writes(real, real_log)
            log_checked_writes(twin, twin_log)
            assert apply_step(real, step) == apply_step(twin, step), step
            assert replica_contents(real) == replica_contents(twin), step
        # Heal everything and repair through every checked path once more.
        for cluster in (real, twin):
            for node_id in range(len(cluster.nodes)):
                cluster.network.set_flaky(node_id, 0.0)
            for node_id in range(len(cluster.nodes)):
                revive(cluster, node_id)
        for node_id in range(len(real.nodes)):
            assert apply_step(real, ("recover", node_id)) == apply_step(
                twin, ("recover", node_id)
            )
        assert replica_contents(real) == replica_contents(twin)
        assert real_log == twin_log
        assert real.replication.next_seq() == twin.replication.next_seq()
    finally:
        real.close()
        twin.close()


@settings(max_examples=150, deadline=None)
@given(cluster_shapes(), steps)
def test_fresh_writes_equal_checked_writes(shape, history) -> None:
    run_pair(shape, history)


@pytest.mark.parametrize("seed", [3, 17])
def test_same_on_the_lsm_engine(tmp_path, seed) -> None:
    """One long seeded history on real files, engine flushes included."""
    import random

    rng = random.Random(seed)
    history = []
    for _ in range(300):
        draw = rng.random()
        key, value = rng.choice(KEYS), rng.randbytes(rng.randrange(40))
        node = rng.randrange(4)
        if draw < 0.45:
            history.append(("put", key, value))
        elif draw < 0.55:
            history.append(("delete", key))
        elif draw < 0.62:
            history.append(("load", key, value))
        elif draw < 0.66:
            history.append(("load_delete", key))
        elif draw < 0.72:
            history.append(("test_and_set", key, value))
        elif draw < 0.78:
            history.append(("down", node))
        elif draw < 0.83:
            history.append(("revive", node))
        elif draw < 0.88:
            history.append(("recover", node))
        elif draw < 0.92:
            history.append(("flaky", node, rng.choice([0.0, 0.4])))
        else:
            history.append(("read", key))
    shape = dict(
        storage_nodes=4, replication=3, read_quorum=2, write_quorum=2,
        seed=seed, vnodes_per_node=8, storage_engine="lsm",
    )

    def options(name: str) -> Dict[str, object]:
        return dict(
            engine_options=dict(
                data_dir=str(tmp_path / name), memtable_budget_bytes=512
            )
        )

    run_pair(shape, history, real=options("real"), twin=options("twin"))
