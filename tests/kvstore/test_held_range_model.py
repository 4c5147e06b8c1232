"""Range reads served from a gather window's held reply, on generated data.

Inside a gather window ``StorageClient`` holds every completed unfiltered
``get_range`` reply under ``(namespace, start, end, limit, ascending)``.
A later ``get_range`` of the same key, or a ``filtered_range`` of it, is
served from the held rows: no RPC, no node charged, one logical operation
that touches every held row.  The definition it must keep is the cluster's
own answer: a twin client on a twin cluster, without a window, issues the
same two reads, and the served answer must equal the twin's — pairs, keys
examined and last examined key — with the same ``operations`` and
``keys_touched`` and exactly one RPC fewer.

Rows, bounds (inside one owner, across owners, open on either side),
limits, directions and filters are generated; the cases that must *not*
share (filtered first, another limit or direction, a write inside the
range) are pinned below the property.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import ClusterConfig, KeyValueCluster, SimClock, StorageClient
from repro.schema.keys import encode_key, prefix_range

NAMESPACE = "data"
OWNERS = ("ann", "bob", "cy")
NUMBERS = range(8)

#: ``(start, end, limit, ascending)``
Spec = Tuple[Optional[bytes], Optional[bytes], Optional[int], bool]


def build(rows: Dict[bytes, bytes], seed: int) -> StorageClient:
    cluster = KeyValueCluster(
        ClusterConfig(storage_nodes=4, replication=2, seed=seed)
    )
    cluster.create_namespace(NAMESPACE)
    for key, value in rows.items():
        cluster.load(NAMESPACE, key, value)
    return StorageClient(cluster)


def node_charges(client: StorageClient) -> List[Tuple[int, int, float]]:
    return [
        (node.stats.range_requests, node.stats.range_rows,
         node.stats.total_latency_seconds)
        for node in client.cluster.nodes
    ]


def keyed_by(modulus: int):
    """A record filter that keeps values whose length ``modulus`` divides."""
    return lambda key, value: len(value) % modulus == 0


def counters(client: StorageClient) -> Tuple[int, int, int, int]:
    stats = client.stats
    return (
        stats.operations, stats.keys_touched, stats.rpcs, stats.coalesced_reads
    )


def read(client: StorageClient, spec: Spec, modulus: Optional[int]):
    """``get_range`` (``modulus`` None) or ``filtered_range`` of ``spec``,
    both as ``(pairs, examined, last examined key)``."""
    start, end, limit, ascending = spec
    if modulus is None:
        pairs = client.get_range(NAMESPACE, start, end, limit, ascending)
        return pairs, len(pairs), pairs[-1][0] if pairs else None
    return client.filtered_range(
        NAMESPACE, start, end, limit, ascending, keyed_by(modulus)
    )


ALL_KEYS = [encode_key((owner, number)) for owner in OWNERS for number in NUMBERS]


@st.composite
def datasets(draw) -> Dict[bytes, bytes]:
    keys = draw(st.lists(st.sampled_from(ALL_KEYS), unique=True, max_size=20))
    return {key: draw(st.binary(min_size=0, max_size=6)) for key in keys}


@st.composite
def specs(draw) -> Spec:
    """A bound inside one owner, between two keys, or open on one side."""
    shape = draw(st.sampled_from(("owner", "keys", "open_start", "open_end")))
    if shape == "owner":
        start, end = prefix_range((draw(st.sampled_from(OWNERS)),))
    else:
        low, high = sorted(draw(st.lists(
            st.sampled_from(ALL_KEYS), min_size=2, max_size=2, unique=True,
        )))
        start = None if shape == "open_start" else low
        end = None if shape == "open_end" else high
    limit = draw(st.one_of(st.none(), st.integers(1, 10)))
    return start, end, limit, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(
    rows=datasets(),
    spec=specs(),
    modulus=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 20),
)
def test_a_served_range_is_the_clusters_answer_at_one_rpc_fewer(
    rows, spec, modulus, seed
):
    shared, twin = build(rows, seed), build(rows, seed)
    shared.begin_gather_window()
    first = read(shared, spec, None)
    charged = node_charges(shared)
    served = read(shared, spec, modulus)
    assert node_charges(shared) == charged
    shared.end_gather_window()
    assert read(twin, spec, None) == first
    assert served == read(twin, spec, modulus)

    operations, keys, rpcs, coalesced = counters(shared)
    twin_operations, twin_keys, twin_rpcs, _ = counters(twin)
    assert (operations, keys) == (twin_operations, twin_keys)
    assert rpcs == twin_rpcs - 1
    assert coalesced == 1


# ----------------------------------------------------------------------
# What is not shared, and what a write does
# ----------------------------------------------------------------------
def loaded() -> StorageClient:
    return build(
        {key: b"v%d" % index for index, key in enumerate(ALL_KEYS)}, seed=3
    )


BOB = prefix_range(("bob",))


def test_filtered_first_is_not_held_for_an_unfiltered_second():
    client = loaded()
    client.begin_gather_window()
    read(client, (*BOB, 5, True), 2)
    read(client, (*BOB, 5, True), None)
    client.end_gather_window()
    assert counters(client)[2:] == (2, 0)


def test_another_limit_or_direction_is_not_shared():
    client = loaded()
    client.begin_gather_window()
    read(client, (*BOB, 5, True), None)
    read(client, (*BOB, 4, True), None)
    read(client, (*BOB, 5, False), None)
    read(client, (*BOB, 5, True), 1)
    client.end_gather_window()
    assert counters(client)[2:] == (3, 1)


def test_a_write_inside_the_range_evicts_it():
    client = loaded()
    client.begin_gather_window()
    before, _, _ = read(client, (*BOB, None, True), None)
    written = encode_key(("bob", 3))
    client.put(NAMESPACE, written, b"fresh")
    after, _, _ = read(client, (*BOB, None, True), None)
    client.end_gather_window()
    assert counters(client)[2:] == (3, 0)
    assert dict(after)[written] == b"fresh" != dict(before)[written]


def test_a_write_outside_the_range_keeps_it():
    client = loaded()
    client.begin_gather_window()
    before, _, _ = read(client, (*BOB, None, True), None)
    client.put(NAMESPACE, encode_key(("cy", 3)), b"fresh")
    client.put(NAMESPACE, BOB[1], b"at the exclusive end")
    after, _, _ = read(client, (*BOB, None, True), None)
    client.end_gather_window()
    assert counters(client)[2:] == (3, 1)
    assert after == before


def test_a_served_list_does_not_alias_the_held_reply():
    client = loaded()
    client.begin_gather_window()
    first = client.get_range(NAMESPACE, *BOB, 5)
    first.clear()
    served = client.get_range(NAMESPACE, *BOB, 5)
    served.append((b"junk", b"junk"))
    again = client.get_range(NAMESPACE, *BOB, 5)
    client.end_gather_window()
    assert len(again) == 5 and again is not served


def test_a_served_read_waits_for_the_held_reply():
    client = loaded()
    client.begin_gather_window()
    start = client.now
    client.get_range(NAMESPACE, *BOB, 5)
    ready_at = client.now
    # A second branch starts at the same instant on its own clock, as
    # ``Session.gather`` runs it.
    client.clock = SimClock(now=start)
    client.filtered_range(NAMESPACE, *BOB, 5, True, keyed_by(1))
    assert client.now == ready_at
    client.end_gather_window()
    # Outside the window nothing is held.
    client.get_range(NAMESPACE, *BOB, 5)
    assert counters(client)[2:] == (2, 1)
