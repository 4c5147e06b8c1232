"""``_entries_in_output_order`` against the Lazy executor's sort-then-truncate.

The fused sorted join orders fetched index entries *before* materialising
rows; the contract is the order ``sort_rows`` gives the joined rows (stable,
NULLs first on ascending keys), truncated at the stop.  The entries here
are laid out the way the two index kinds lay them out — join prefix, sort
columns, then the rest of the key — and arrive per child in scan order.

The merge never decodes: it compares the sort columns' bytes, complemented
for DESC.  So each value domain below is one way byte order could part from
value order — sign, -0.0, a string that prefixes another or holds a NUL —
under DESC, mixed directions and NULLs.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.evaluate import sort_rows
from repro.execution.operators import _bound_sort_keys, _entries_in_output_order
from repro.plans import physical as P
from repro.schema.keys import encode_key

ALIAS = "t"

#: Few distinct values, so sort values tie within and across children.
_SORT_VALUE = st.one_of(st.none(), st.integers(min_value=-2, max_value=2))


def _join(directions, scan_ascending) -> P.PhysicalSortedIndexJoin:
    return P.PhysicalSortedIndexJoin(
        child=P.PhysicalIndexLookup(relation_alias="c", table="children"),
        relation_alias=ALIAS,
        table="entries",
        index=P.IndexChoice(table="entries", primary=True),
        sort_keys=tuple((f"s{i}", asc) for i, asc in enumerate(directions)),
        ascending=scan_ascending,
    )


def _fetch(children, prefix_arity, suffix_arity, scan_ascending):
    """What the range requests return: per child, ``(key, value)`` pairs in
    scan order, plus each child's join-prefix byte length.

    ``prefix_arity=1, suffix_arity=1`` is the primary-index layout (join
    key, sort columns, rest of the primary key); a secondary index carries a
    longer suffix (remaining index columns, then the primary key).  Prefixes
    are strings of different lengths, so the sort columns start at a
    different byte in every child.
    """
    per_child_entries, prefix_lengths, records = [], [], []
    for child_index, sort_tuples in enumerate(children):
        prefix = [f"owner-{'x' * child_index}"] + [7] * (prefix_arity - 1)
        fetched = []
        for serial, sort_values in enumerate(sort_tuples):
            suffix = [serial] + ["pad"] * (suffix_arity - 1)
            key = encode_key(prefix + list(sort_values) + suffix)
            fetched.append((key, b"%d/%d" % (child_index, serial), sort_values))
        fetched.sort(reverse=not scan_ascending)  # keys are unique
        per_child_entries.append([(key, value) for key, value, _ in fetched])
        prefix_lengths.append(len(encode_key(prefix)))
        records.append([sort_values for _, _, sort_values in fetched])
    return per_child_entries, prefix_lengths, records


def _expected(op, records, stop):
    """(child, entry) positions in the order of ``sort_rows(...)[:stop]``."""
    joined = [
        {
            ALIAS: {f"s{i}": v for i, v in enumerate(sort_values)},
            "position": (child_index, entry_index),
        }
        for child_index, child_records in enumerate(records)
        for entry_index, sort_values in enumerate(child_records)
    ]
    ordered = sort_rows(joined, _bound_sort_keys(op))
    return [row["position"] for row in ordered][:stop]


def _check(children, directions, scan_ascending, prefix_arity, suffix_arity, stop):
    op = _join(directions, scan_ascending)
    per_child_entries, prefix_lengths, records = _fetch(
        children, prefix_arity, suffix_arity, scan_ascending
    )
    ordered = _entries_in_output_order(op, per_child_entries, prefix_lengths)
    got = list(islice(ordered, stop))
    assert [(c, e) for c, e, _ in got] == _expected(op, records, stop)
    assert all(per_child_entries[c][e][1] == value for c, e, value in got)


@st.composite
def _cases(draw):
    directions = draw(st.lists(st.booleans(), min_size=1, max_size=2))
    sort_tuple = st.tuples(*[_SORT_VALUE] * len(directions))
    children = draw(
        st.lists(st.lists(sort_tuple, max_size=6), min_size=1, max_size=5)
    )
    total = sum(len(child) for child in children)
    stop = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=total + 1)))
    return children, directions, draw(st.booleans()), stop


@pytest.mark.parametrize(
    "prefix_arity, suffix_arity", [(1, 1), (2, 2)], ids=["primary", "secondary"]
)
@settings(max_examples=200, deadline=None)
@given(_cases())
def test_matches_sort_rows_then_truncate(prefix_arity, suffix_arity, case):
    children, directions, scan_ascending, stop = case
    _check(children, directions, scan_ascending, prefix_arity, suffix_arity, stop)


@pytest.mark.parametrize(
    "directions, scan_ascending",
    [
        ((True,), True),             # all ASC, scanned ascending: lazy merge
        ((False, False), False),     # all DESC, scanned descending: lazy merge
        ((True, False), True),       # mixed: each child ordered first
        ((True,), False),            # one direction, but against the scan
    ],
)
def test_nulls_and_ties_across_children(directions, scan_ascending):
    width = len(directions)
    children = [
        [(None,) * width, (1,) * width, (1,) * width],
        [(1,) * width, (None,) * width],
        [],
        [(0,) * width, (1,) * width],
    ]
    for stop in (None, 0, 1, 4, 7):
        _check(children, directions, scan_ascending, 1, 1, stop)


def test_presorted_children_are_decoded_lazily():
    """Directions equal to the scan direction: the merge looks at one entry
    per child plus one per row emitted, never at the rest — the undecodable
    tails prove it."""
    op = _join((False,), scan_ascending=False)
    prefix = encode_key(["owner"])
    good = [(prefix + encode_key([ts, 0]), b"v") for ts in (9, 8, 7)]
    poison = [(prefix + b"\xfe", b"never decoded")]
    per_child_entries = [good + poison, good + poison]
    ordered = _entries_in_output_order(op, per_child_entries, [len(prefix)] * 2)
    assert [(c, e) for c, e, _ in islice(ordered, 4)] == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]


#: One column type each (a key position holds one type, or NULL).
_DOMAINS = {
    "ints": [-(2**62), -(2**40), -256, -1, 0, 1, 255, 256, 2**40, 2**62],
    "floats": [float("-inf"), -1e300, -1.5, -5e-324, -0.0, 0.0, 5e-324, 1.5, float("inf")],
    "strings": ["", "a", "a\x00", "a\x00\x00", "a\x00b", "a\x01", "ab", "b", "\xff", "é"],
    "bools": [False, True],
}


@st.composite
def _typed_cases(draw):
    domains = draw(
        st.lists(st.sampled_from(sorted(_DOMAINS)), min_size=1, max_size=3)
    )
    sort_tuple = st.tuples(
        *[st.none() | st.sampled_from(_DOMAINS[name]) for name in domains]
    )
    directions = draw(st.tuples(*[st.booleans()] * len(domains)))
    children = draw(
        st.lists(st.lists(sort_tuple, max_size=6), min_size=1, max_size=4)
    )
    total = sum(len(child) for child in children)
    stop = draw(st.none() | st.integers(min_value=0, max_value=total + 1))
    return children, directions, draw(st.booleans()), stop


@settings(max_examples=150, deadline=None)
@given(_typed_cases())
def test_byte_order_is_value_order_for_every_type(case):
    children, directions, scan_ascending, stop = case
    _check(children, directions, scan_ascending, 1, 1, stop)


@pytest.mark.parametrize("scan_ascending", [True, False])
@pytest.mark.parametrize(
    "directions, children",
    [
        # A DESC string last in the cut: "a" must not lead "a\x00b" just
        # because its complemented bytes are a prefix of the other's.
        ((False,), [[("a",)], [("a\x00b",)], [("a\x00",), ("",)]]),
        # ... nor when a NULL (ASC tag 00 / DESC tag ff) follows it.
        ((False, True), [[("a", None)], [("a\x00b", None)], [("a\x00", 1)]]),
        # ... nor ASC "a" ahead of a DESC NULL: its ff must not read as an escape.
        (
            (True, False, True),
            [[("a", None, 1)], [("a\x00", None, 1)], [("a\x00b", 0, 1), ("a", None, 0)]],
        ),
        # -0.0 and 0.0 are equal values: a tie, broken by position.
        ((True,), [[(0.0,)], [(-0.0,)], [(-5e-324,), (0.0,)]]),
        ((False,), [[(-0.0,)], [(0.0,)], [(5e-324,), (-0.0,)]]),
        # Infinities and NULL at both ends, mixed with an int column.
        (
            (False, True),
            [
                [(float("inf"), -1), (None, 0)],
                [(float("-inf"), 1), (float("inf"), -(2**40))],
                [(None, -1), (1.5, 2**40)],
            ],
        ),
        ((False, False), [[(True, False)], [(False, True), (None, True)], [(True, None)]]),
    ],
)
def test_spelled_out_byte_order_cases(directions, children, scan_ascending):
    total = sum(len(child) for child in children)
    for stop in (None, 1, 2, total):
        _check(children, directions, scan_ascending, 1, 1, stop)
