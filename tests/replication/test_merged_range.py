"""``ReplicationManager.merged_range`` against a brute-force oracle.

The merge reads bounded chunks from every replica and resolves them
newest-wins; these tests check it against the definition — per key the
newest sequence over all replicas, tombstones suppress — on generated
replica contents, including the cases the chunking has to get right:
replicas that disagree about a key, slices that lead with tombstones (the
continuation pass), and keys just past the horizon.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.engine import LsmEngine
from repro.replication.manager import ReplicationManager
from repro.replication.store import encode_record

NAMESPACE = "ns"

#: One replica's content: key -> (seq, value or None for a tombstone).
Replica = Dict[bytes, Tuple[int, Optional[bytes]]]


def _oracle(
    replicas: List[Replica],
    start: Optional[bytes],
    end: Optional[bytes],
    limit: Optional[int],
    ascending: bool,
) -> List[Tuple[bytes, bytes]]:
    newest: Replica = {}
    for replica in replicas:
        for key, (seq, value) in replica.items():
            if key not in newest or seq > newest[key][0]:
                newest[key] = (seq, value)
    live = sorted(
        (key, value)
        for key, (_, value) in newest.items()
        if value is not None
        and (start is None or key >= start)
        and (end is None or key < end)
    )
    if not ascending:
        live.reverse()
    return live if limit is None else live[:limit]


def _manager(replicas: List[Replica], lsm_dir: Optional[str]) -> ReplicationManager:
    manager = ReplicationManager(replication=len(replicas))
    for node_id, replica in enumerate(replicas):
        engine = None
        if lsm_dir is not None:
            # A tiny memtable spreads each replica over several segments.
            engine = LsmEngine(f"{lsm_dir}/node-{node_id}", memtable_budget_bytes=256)
        store = manager.attach_node(node_id, engine)
        for key, (seq, value) in replica.items():
            store.map(NAMESPACE).put(key, encode_record(seq, value))
    return manager


def _merged(manager, node_ids, start, end, limit, ascending):
    triples = manager.merged_range(NAMESPACE, node_ids, start, end, limit, ascending)
    return [(key, value) for key, value, _ in triples]


_KEYS = st.binary(min_size=1, max_size=2).map(
    # A small alphabet makes replicas overlap; 0x00 exercises ``_key_after``.
    lambda raw: bytes(b"\x00ab\xff"[byte % 4] for byte in raw)
)


@st.composite
def _replica_sets(draw) -> List[Replica]:
    """One to four replicas holding diverging versions of shared keys."""
    count = draw(st.integers(min_value=1, max_value=4))
    keys = draw(st.lists(_KEYS, unique=True, max_size=14))
    replicas: List[Replica] = [{} for _ in range(count)]
    seq = 0
    for key in keys:
        versions = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            seq += 1
            # Tombstones are common so that slices lead with them.
            dead = draw(st.integers(min_value=0, max_value=2)) == 0
            versions.append((seq, None if dead else b"v%d" % seq))
        for replica in replicas:
            held = draw(st.integers(min_value=-1, max_value=len(versions) - 1))
            if held >= 0:
                replica[key] = versions[held]
    return replicas


_BOUNDS = st.one_of(st.none(), _KEYS)
_LIMITS = st.one_of(st.none(), st.integers(min_value=0, max_value=5))


@settings(max_examples=300, deadline=None)
@given(_replica_sets(), _BOUNDS, _BOUNDS, _LIMITS, st.booleans())
def test_matches_oracle_on_dict_engine(replicas, start, end, limit, ascending):
    manager = _manager(replicas, lsm_dir=None)
    node_ids = list(range(len(replicas)))
    assert _merged(manager, node_ids, start, end, limit, ascending) == _oracle(
        replicas, start, end, limit, ascending
    )


@settings(max_examples=40, deadline=None)
@given(_replica_sets(), _BOUNDS, _BOUNDS, _LIMITS, st.booleans())
def test_matches_oracle_on_lsm_engine(replicas, start, end, limit, ascending):
    with tempfile.TemporaryDirectory() as lsm_dir:
        manager = _manager(replicas, lsm_dir)
        try:
            node_ids = list(range(len(replicas)))
            assert _merged(
                manager, node_ids, start, end, limit, ascending
            ) == _oracle(replicas, start, end, limit, ascending)
        finally:
            for store in manager.stores.values():
                store.engine.close()


@pytest.mark.parametrize("ascending", [True, False])
def test_tombstone_led_slice_continues_past_the_horizon(ascending):
    """Every replica fills its chunk with tombstones: the first pass emits
    nothing and the continuation has to find the live keys."""
    keys = [b"k%02d" % i for i in range(12)]
    if not ascending:
        keys.reverse()
    dead, alive = keys[:8], keys[8:]
    replica: Replica = {key: (i + 1, None) for i, key in enumerate(dead)}
    replica.update({key: (100 + i, b"live") for i, key in enumerate(alive)})
    # The second replica still carries the deleted keys live, at older seqs.
    stale: Replica = {key: (0, b"stale") for key in dead}
    manager = _manager([replica, stale], lsm_dir=None)
    expected = _oracle([replica, stale], None, None, 3, ascending)
    assert [key for key, _ in expected] == alive[:3]
    assert _merged(manager, [0, 1], None, None, 3, ascending) == expected


def test_key_past_the_horizon_waits_for_the_lagging_replica():
    """Replica 0's chunk reaches ``d``; replica 1's only reaches ``b``.  The
    copy of ``c`` that replica 0 holds is stale — replica 1 deleted it — so
    ``c`` must not be emitted from the first pass."""
    ahead: Replica = {b"c": (1, b"old"), b"d": (2, b"d")}
    behind: Replica = {
        b"a": (3, None), b"b": (4, None), b"c": (5, None), b"e": (6, b"e"),
    }
    manager = _manager([ahead, behind], lsm_dir=None)
    assert _merged(manager, [0, 1], None, None, 2, True) == [
        (b"d", b"d"), (b"e", b"e"),
    ]


def test_serving_node_is_last_listed_known_defect():
    """Pins a defect, not a contract: every triple is attributed to the last
    node id passed in, whichever replica supplied the winning record, so the
    cluster charges all range work to that node.  Attributing correctly
    changes the simulated latencies (``scadr_closed`` ``sim_p50_ms``
    5.48 -> 6.64 ms), so the fix needs its own change with re-baselined
    results; until then this test keeps the behaviour from drifting."""
    only_on_zero: Replica = {b"a": (1, b"a")}
    newest_on_one: Replica = {b"b": (3, b"new")}
    stale_on_two: Replica = {b"b": (2, b"old")}
    manager = _manager([only_on_zero, newest_on_one, stale_on_two], lsm_dir=None)
    triples = manager.merged_range(NAMESPACE, [0, 1, 2], None, None)
    assert triples == [(b"a", b"a", 2), (b"b", b"new", 2)]
    assert manager.merged_range(NAMESPACE, [2, 0, 1], None, None, limit=1) == [
        (b"a", b"a", 1)
    ]
    assert manager.merged_range(NAMESPACE, [], None, None) == []
