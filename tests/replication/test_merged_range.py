"""``ReplicationManager.merged_range`` against a brute-force oracle.

The merge reads bounded chunks from every replica and resolves them
newest-wins; these tests check it against the definition — per key the
newest sequence over all replicas, tombstones suppress — on generated
replica contents, including the cases the chunking has to get right:
replicas that disagree about a key, slices that lead with tombstones (the
continuation pass), and keys just past the horizon.

A bounded range inside one leading value is answered from a memo until a
key with that leading value changes, so the oracle is also run over
generated *histories* of encoded keys
(:func:`test_history_matches_oracle_on_dict_engine` and its LSM twin):
every way a replica's content can change, interleaved with repeated reads
of the same ranges over growing and shrinking views, each read checked
against the oracle.  A change through a ``ReplicaStore`` door drops its
lead's entries; any other (a bulk load, a crash and recovery) is
followed by ``clear_range_memo``, as the cluster
does after its bulk load and recovery.
"""

from __future__ import annotations

import bisect
import random
import tempfile
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kvstore.engine import LsmEngine
from repro.replication.manager import RANGE_MEMO_MAX, ReplicationManager
from repro.replication.store import encode_record
from repro.schema.keys import encode_key

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
            store.engine.map(NAMESPACE).put(key, encode_record(seq, value))
    return manager


def _merged(manager, node_ids, start, end, limit, ascending):
    """The merge, memoized when ``[start, end)`` lies inside one leading
    value (as ``KeyValueCluster`` asks for it)."""
    found = (
        manager.range_group(NAMESPACE, start, end)
        if start is not None and end is not None else None
    )
    pairs, nbytes = manager.merged_range(
        NAMESPACE, node_ids, None if found is None else found[0],
        start, end, limit, ascending,
    )
    assert nbytes == sum(len(value) for _, value in pairs)
    return pairs


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


# ----------------------------------------------------------------------
# Histories: the memo must never answer for a range that has changed
# ----------------------------------------------------------------------
#: Three replicas; a read's view is one of these orderings or subsets (a
#: single replica's view shows any change to it).
_NODES = 3
_VIEWS = ([0, 1, 2], [0, 1], [1, 2], [2, 0], [0], [1], [2], [2, 1, 0])
#: Leading values whose encodings nest (``"a"`` is a byte prefix of
#: ``"a\x00"``'s) and a second field: few keys, so that a later step finds
#: the key an earlier one wrote.
_LEADS = ("", "a", "a\x00", "b")
_KEY = st.builds(
    lambda lead, rest: encode_key((lead, *rest)),
    st.sampled_from(_LEADS),
    st.sampled_from([(), (0,), (1,), ("x",)]),
)
#: Bounded ranges inside one leading value (what the memo serves), with
#: the edges it must get right — descending, an empty or inverted range,
#: limit 0, bounds that are keys themselves, the whole lead.
_BOUNDED = st.builds(
    lambda lead, low, high, limit, ascending: (
        encode_key((lead, *low)),
        encode_key((lead,)) + b"\xff" if high is None
        else encode_key((lead, *high)),
        limit, ascending,
    ),
    st.sampled_from(_LEADS),
    st.sampled_from([(), (0,), (1,)]),
    st.sampled_from([None, (), (1,), (2,), ("x",)]),
    st.sampled_from([0, 1, 3, 5, 5]),
    st.booleans(),
)
#: What a history re-reads after every step.
_PROBES = st.lists(
    st.tuples(st.sampled_from(_VIEWS), _BOUNDED), min_size=1, max_size=3
)
_NODE = st.integers(min_value=0, max_value=_NODES - 1)
_VALUE = st.one_of(st.none(), st.binary(max_size=3))
_ANY_BOUND = st.one_of(st.none(), _KEY)
_STEP = st.one_of(
    st.tuples(st.just("write"), st.sets(_NODE, min_size=1), _KEY, _VALUE),
    st.tuples(st.just("write"), st.sets(_NODE, min_size=1), _KEY, _VALUE),
    st.tuples(st.just("write"), st.sets(_NODE, min_size=1), _KEY, _VALUE),
    # A key the node holds, by position (any key when it holds none).
    st.tuples(st.just("copy"), _NODE, _NODE, st.integers(0, 5)),
    st.tuples(st.just("discard"), _NODE, st.integers(0, 5)),
    st.tuples(st.just("flush"), _NODE),
    st.tuples(st.just("compact"), _NODE),
    st.tuples(st.just("crash"), _NODE),
    st.tuples(
        st.just("bulk_load"), _NODE,
        st.dictionaries(_KEY, _VALUE, min_size=1, max_size=4),
    ),
    # Any bounds: inside one lead (memoized), across leads, or open.
    st.tuples(
        st.just("read"), st.sampled_from(_VIEWS),
        st.tuples(_ANY_BOUND, _ANY_BOUND, _LIMITS, st.booleans()),
    ),
    st.tuples(st.just("read"), st.sampled_from(_VIEWS), _BOUNDED),
)


def _run_history(probes, steps, lsm_dir: Optional[str]) -> None:
    manager = ReplicationManager(replication=_NODES)
    stores = []
    for node_id in range(_NODES):
        engine = None
        if lsm_dir is not None:
            # Flushes every dozen or so writes: deletes meet both a
            # memtable-only tree and segments beneath it.
            engine = LsmEngine(
                f"{lsm_dir}/node-{node_id}", memtable_budget_bytes=1024,
                fanout=2,
            )
        stores.append(manager.attach_node(node_id, engine))
    replicas: List[Replica] = [{} for _ in range(_NODES)]

    def held(node_id: int, index: int) -> bytes:
        keys = sorted(replicas[node_id]) or [encode_key(("a", 0))]
        return keys[index % len(keys)]

    def read(view, start, end, limit, ascending, step) -> None:
        assert _merged(manager, view, start, end, limit, ascending) == _oracle(
            [replicas[node_id] for node_id in view], start, end, limit,
            ascending,
        ), step

    try:
        for step in steps:
            for view, bounds in probes:
                read(view, *bounds, step)
            kind, args = step[0], step[1:]
            if kind == "write":
                nodes, key, value = args
                seq = manager.next_seq()
                for node_id in nodes:
                    stores[node_id].write_fresh(
                        NAMESPACE, key, encode_record(seq, value)
                    )
                    replicas[node_id][key] = (seq, value)
            elif kind == "copy":
                # What repair and hint replay do: push another replica's
                # record through the checked door.
                source, target, index = args
                key = held(source, index)
                if key in replicas[source]:
                    seq, value = replicas[source][key]
                    if stores[target].apply_record(
                        NAMESPACE, key, encode_record(seq, value)
                    ):
                        replicas[target][key] = (seq, value)
            elif kind == "discard":
                node_id, index = args
                key = held(node_id, index)
                stores[node_id].discard(NAMESPACE, key)
                replicas[node_id].pop(key, None)
            elif kind == "flush":
                stores[args[0]].engine.flush()
            elif kind == "compact":
                stores[args[0]].engine.run_maintenance()
            elif kind == "crash":
                stores[args[0]].engine.crash()
                stores[args[0]].engine.recover()
                manager.clear_range_memo()
            elif kind == "bulk_load":
                node_id, items = args
                records = []
                for key, value in items.items():
                    seq = manager.next_seq()
                    records.append((key, encode_record(seq, value)))
                    replicas[node_id][key] = (seq, value)
                stores[node_id].engine.bulk_load(NAMESPACE, records)
                manager.clear_range_memo()
            else:
                view, bounds = args
                read(view, *bounds, step)
        for view, bounds in probes:
            read(view, *bounds, "end")
    finally:
        for store in stores:
            store.engine.close()


#: One probe that sees every key of lead ``"a"``, and histories that change
#: what it sees through each path a replica's content changes by.
_WHOLE_A = (encode_key(("a",)), encode_key(("a",)) + b"\xff", 5, True)
_EVERYTHING = [([0], _WHOLE_A)]
_WRITE = ("write", {0}, encode_key(("a", 0)), b"x")
_BY_EVERY_PATH = (
    [_WRITE, ("discard", 0, 0)],
    [_WRITE, ("bulk_load", 0, {encode_key(("a", 1)): b"z"})],
    [_WRITE, ("flush", 0), ("discard", 0, 0)],
    [_WRITE, ("copy", 0, 1, 0)],
    [_WRITE, ("crash", 0), ("write", {0}, encode_key(("a", 0)), None)],
)


@settings(max_examples=200, deadline=None)
@given(_PROBES, st.lists(_STEP, min_size=4, max_size=40))
@example(_EVERYTHING, _BY_EVERY_PATH[0])
@example(_EVERYTHING, _BY_EVERY_PATH[1])
@example([([1], _WHOLE_A)], _BY_EVERY_PATH[3])
def test_history_matches_oracle_on_dict_engine(probes, steps):
    _run_history(probes, steps, lsm_dir=None)


@settings(max_examples=60, deadline=None)
@given(_PROBES, st.lists(_STEP, min_size=4, max_size=30))
@example(_EVERYTHING, _BY_EVERY_PATH[0])
@example(_EVERYTHING, _BY_EVERY_PATH[1])
@example(_EVERYTHING, _BY_EVERY_PATH[2])
@example(_EVERYTHING, _BY_EVERY_PATH[4])
def test_history_matches_oracle_on_lsm_engine(probes, steps):
    with tempfile.TemporaryDirectory() as lsm_dir:
        _run_history(probes, steps, lsm_dir)


def _memo_entries(manager: ReplicationManager) -> int:
    """Entries the memo holds, counted; must equal the count it keeps."""
    held = sum(
        len(entries)
        for leads in manager._range_memos.values()
        for entries in leads.values()
    )
    assert held == sum(manager._memo_sizes.values())
    return held


def test_memo_stays_bounded_under_interleaved_writes():
    """Flat in run length (ROADMAP item 11): through 10 000 rounds of a
    random write and a bounded range of a random leading value, every read
    is right and the memo holds at most one entry per lead read since its
    last write, never more than ``RANGE_MEMO_MAX``.  A read-only run over
    ever new ranges is held to ``RANGE_MEMO_MAX`` too."""
    rng = random.Random(7)
    manager = ReplicationManager(replication=3)
    stores = [manager.attach_node(node_id) for node_id in range(3)]
    newest: Dict[bytes, bytes] = {}
    ordered: List[bytes] = []
    for round_number in range(10_000):
        key = encode_key(("u%03d" % rng.randrange(1000), rng.randrange(100)))
        value = b"v%d" % round_number
        record = encode_record(manager.next_seq(), value)
        for store in rng.sample(stores, 2):
            store.write_fresh(NAMESPACE, key, record)
        if key not in newest:
            bisect.insort(ordered, key)
        newest[key] = value
        start = encode_key(("u%03d" % rng.randrange(1000),))
        end = start + b"\xff"
        lead, _ = manager.range_group(NAMESPACE, start, end)
        pairs, _ = manager.merged_range(
            NAMESPACE, [0, 1, 2], lead, start, end, 4
        )
        at = bisect.bisect_left(ordered, start)
        assert pairs == [
            (k, newest[k]) for k in ordered[at:at + 4] if k < end
        ]
        held = _memo_entries(manager)
        assert held <= 1000, (round_number, held)
    # Read-only, every range new: nothing is dropped, the cap still holds.
    for number in range(RANGE_MEMO_MAX + 256):
        start = encode_key(("w%05d" % number,))
        lead, _ = manager.range_group(NAMESPACE, start, start + b"\xff")
        manager.merged_range(
            NAMESPACE, [0, 1, 2], lead, start, start + b"\xff", 4
        )
        held = _memo_entries(manager)
        assert held <= RANGE_MEMO_MAX, (number, held)
