"""Leading-field placement under hostile leading values (property-based).

The ring places an encoded key by its first value
(``replication.ring.placement_token``), and a bounded range whose end
repeats that value merges one replica group
(``ReplicationManager.range_group``).  Both cut the key where
``schema.keys.skip_value`` says the first value ends, so the values that
stress the codec's escaping stress placement too: strings and bytes
holding ``\\x00`` (escaped as ``\\x00\\xff``) and ``\\xff``, the empty
value, the longest ``VARCHAR`` strings, and 64-bit ints at both ends.  The
awkward author and page strings come from the DMR-XPath bibliography
slice (SNIPPETS.md 1).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.kvstore import ClusterConfig, KeyValueCluster
from repro.replication.manager import ReplicationManager
from repro.replication.ring import placement_token
from repro.schema.keys import encode_key, prefix_range
from repro.schema.types import VarcharType

NAMESPACE = "index:hostile"
#: Strings from the DMR-XPath slice: entities left unexpanded, numbered
#: homonyms, page ranges, and the expanded umlauts.
DMR_XPATH = (
    "Thomas H&uuml;tter",
    "Thomas Hütter",
    "Michael J. Carey 0001",
    "Chen Li 0001",
    "71:1-71:25",
    "2686-2698",
    "&lt;title&gt;&amp;uuml;&lt;/title&gt;",
    "JEDI: These aren't the JSON documents you're looking for?",
    "db/journals/pvldb/pvldb16.html#SchmittKAMM23",
)
LONGEST = VarcharType().max_length
HOSTILE_CHARS = st.sampled_from(["\x00", "\xff", "\x00\xff", "ü", "a", "\x01"])

leading_values = st.one_of(
    st.sampled_from(DMR_XPATH),
    st.just(""),
    st.just(b""),
    st.lists(HOSTILE_CHARS, max_size=12).map("".join),
    st.text(min_size=LONGEST, max_size=LONGEST).filter(
        lambda text: len(text) == LONGEST
    ),
    HOSTILE_CHARS.map(lambda char: char * LONGEST),
    st.binary(max_size=16),
    st.lists(st.sampled_from([b"\x00", b"\xff", b"\x00\xff", b"\xff\x00"]),
             max_size=8).map(b"".join),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
trailing_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(["", "\x00", "\xff", "\x00\xff"] + list(DMR_XPATH)),
    st.binary(max_size=8),
)


def _manager() -> ReplicationManager:
    manager = ReplicationManager(replication=2, vnodes_per_node=16, seed=3)
    for node_id in range(6):
        manager.attach_node(node_id)
    return manager


MANAGER = _manager()


@settings(max_examples=300, deadline=None)
@given(leading=leading_values, rest=st.lists(trailing_values, max_size=3))
def test_a_prefix_range_resolves_to_the_group_of_every_key_inside_it(leading, rest):
    start, end = prefix_range((leading,))
    assert MANAGER.range_group(NAMESPACE, start, end) == MANAGER.read_preference(
        NAMESPACE, start
    )
    key = encode_key((leading, *rest))
    assert start <= key < end
    assert placement_token(NAMESPACE, key) == placement_token(NAMESPACE, start)
    assert placement_token(NAMESPACE, start) == (
        NAMESPACE.encode() + b"\x00" + start
    )


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(leading_values, min_size=3, max_size=3),
    rest=st.lists(trailing_values, max_size=2),
)
# ``06 00`` to ``06 00 ff ff 00``: the end repeats the start's two bytes,
# yet ``b"\x00"`` (``06 00 ff 00``) lies between.
@example(values=[b"", b"\x00\xff", b"\x00"], rest=[])
@example(values=["", "\x00\x00", "\x00"], rest=[1])
def test_a_range_between_leading_values_is_one_group_only_if_its_keys_are(
    values, rest
):
    """A range whose bounds hold different leading values is one group
    only when no other leading value fits between them (``b""`` up to
    ``b"\\x00"``: nothing encodes between ``06 00`` and ``06 00 ff 00``).
    Sharing ``start``'s first value as a byte prefix is not enough."""
    low, high = sorted([encode_key((values[0],)), encode_key((values[1],))])
    group = MANAGER.range_group(NAMESPACE, low, high)
    if group is None:
        return
    for value in values:
        key = encode_key((value, *rest))
        if low <= key < high:
            assert placement_token(NAMESPACE, key) == placement_token(
                NAMESPACE, low
            )


@settings(max_examples=200, deadline=None)
@given(raw=st.binary(min_size=1, max_size=24))
def test_a_raw_key_places_whole(raw):
    """A key that is not an encoded tuple — its first byte is no codec tag,
    or its first value is cut short — places by all of its bytes, and
    placing it never raises."""
    token = placement_token(NAMESPACE, raw)
    if raw[0] > 0x06:
        assert token == NAMESPACE.encode() + b"\x00" + raw
    for truncated in (b"\x05" + raw.replace(b"\x00", b""), b"\x03" + raw[:7]):
        assert placement_token(NAMESPACE, truncated) == (
            NAMESPACE.encode() + b"\x00" + truncated
        )


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(leading=leading_values, others=st.lists(leading_values, max_size=3))
def test_a_stored_prefix_range_is_served_by_its_group_alone(leading, others):
    cluster = KeyValueCluster(ClusterConfig(storage_nodes=5, replication=2, seed=7))
    cluster.create_namespace(NAMESPACE)
    for value in [leading, *others]:
        for number in range(3):
            cluster.load(NAMESPACE, encode_key((value, number)), b"v")
    start, end = prefix_range((leading,))
    result = cluster.get_range(NAMESPACE, start, end, 10)
    assert [key for key, _ in result.value] == [
        encode_key((leading, number)) for number in range(3)
    ]
    group = cluster.replication.read_preference(NAMESPACE, start)
    assert result.node_id == group[0]
    assert {
        node.node_id for node in cluster.nodes if node.stats.range_requests
    } == {group[0]}
    assert cluster.metrics.value("replication.range_fallbacks") == 0
