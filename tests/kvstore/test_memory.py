"""Unit tests for the in-memory ordered key/value map."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.engine import create_engine
from repro.kvstore.memory import OrderedKVMap


@pytest.fixture
def populated() -> OrderedKVMap:
    store = OrderedKVMap()
    for index in range(10):
        store.put(f"key{index:02d}".encode(), f"value{index}".encode())
    return store


class TestPointOperations:
    def test_get_returns_stored_value(self, populated):
        assert populated.get(b"key03") == b"value3"

    def test_get_missing_returns_none(self, populated):
        assert populated.get(b"missing") is None

    def test_put_overwrites(self, populated):
        populated.put(b"key03", b"new")
        assert populated.get(b"key03") == b"new"
        assert len(populated) == 10

    def test_delete_existing(self, populated):
        assert populated.delete(b"key03") is True
        assert populated.get(b"key03") is None
        assert len(populated) == 9

    def test_delete_missing(self, populated):
        assert populated.delete(b"nope") is False

    def test_rejects_non_bytes_keys(self):
        store = OrderedKVMap()
        with pytest.raises(TypeError):
            store.put("string", b"x")
        with pytest.raises(TypeError):
            store.put(b"x", 42)

    @pytest.mark.parametrize("kind", ["dict", "lsm"])
    def test_bytearray_keys_are_rejected(self, kind, tmp_path):
        """Keys are ``bytes`` at every door of both engines: ``put`` refuses
        a ``bytearray`` key as it refuses a ``str``, so ``get`` and
        ``delete`` never need to convert one.  A ``bytearray`` value is
        still stored as ``bytes``."""
        engine = create_engine(kind, 0, data_dir=str(tmp_path))
        try:
            store = engine.map("data")
            with pytest.raises(TypeError):
                store.put(bytearray(b"k1"), b"v1")
            store.put(b"k2", bytearray(b"v2"))
            assert store.range() == [(b"k2", b"v2")]
            assert type(store.get(b"k2")) is bytes
        finally:
            engine.close()


class TestRangeOperations:
    def test_full_range_in_order(self, populated):
        keys = [k for k, _ in populated.range()]
        assert keys == sorted(keys)
        assert len(keys) == 10

    def test_bounded_range_is_half_open(self, populated):
        pairs = populated.range(b"key02", b"key05")
        assert [k for k, _ in pairs] == [b"key02", b"key03", b"key04"]

    def test_range_with_limit(self, populated):
        pairs = populated.range(b"key02", b"key09", limit=2)
        assert [k for k, _ in pairs] == [b"key02", b"key03"]

    def test_descending_range(self, populated):
        pairs = populated.range(b"key02", b"key05", ascending=False)
        assert [k for k, _ in pairs] == [b"key04", b"key03", b"key02"]

    def test_descending_range_with_limit(self, populated):
        pairs = populated.range(b"key00", b"key09", limit=3, ascending=False)
        assert [k for k, _ in pairs] == [b"key08", b"key07", b"key06"]

    @pytest.mark.parametrize(
        "start, end, limit, expected",
        [
            # The limit binds at the top of the range ...
            (b"key02", b"key07", 2, [b"key06", b"key05"]),
            (None, None, 1, [b"key09"]),
            # ... is exactly the range, or is wider than it (bottom end).
            (b"key02", b"key05", 3, [b"key04", b"key03", b"key02"]),
            (b"key00", b"key02", 5, [b"key01", b"key00"]),
            (None, b"key01", 5, [b"key00"]),
            (b"key02", b"key07", 0, []),
        ],
    )
    def test_descending_limit_keeps_the_top_of_the_range(
        self, populated, start, end, limit, expected
    ):
        pairs = populated.range(start, end, limit=limit, ascending=False)
        assert [k for k, _ in pairs] == expected
        unlimited = populated.range(start, end, ascending=False)
        assert pairs == unlimited[:limit]

    def test_zero_limit_is_empty(self, populated):
        assert populated.range(limit=0) == []
        assert populated.range(b"key02", b"key07", limit=0) == []

    def test_empty_range(self, populated):
        assert populated.range(b"x", b"y") == []

    def test_negative_limit_rejected(self, populated):
        with pytest.raises(ValueError):
            populated.range(limit=-1)

    def test_range_sees_new_writes(self, populated):
        populated.put(b"key035", b"between")
        keys = [k for k, _ in populated.range(b"key03", b"key04")]
        assert keys == [b"key03", b"key035"]

    def test_count_range(self, populated):
        assert len(populated.range(b"key02", b"key05")) == 3
        assert len(populated.range()) == 10
        assert len(populated.range(b"zzz", None)) == 0

    def test_iter_range_sorted(self, populated):
        keys = [k for k, _ in populated.iter_range()]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# The sorted index against a dict plus ``sorted()``
# ----------------------------------------------------------------------
_ALPHABET = (b"\x00", b"a", b"b", b"\xff")
_KEYS = [
    b"".join(letters)
    for length in (1, 2, 3)
    for letters in itertools.product(_ALPHABET, repeat=length)
]
#: Bounds on, between and beyond the keys: a history reads one drawn pair at
#: a time from the long list, and ends by reading every pair of the short one.
_BETWEEN = [None, b"", b"a\x01", b"ab\x00\x00", b"b~", b"\xff\xff\xff\xff"]
_BOUNDS = _BETWEEN + _KEYS
_FINAL_BOUNDS = _BETWEEN + [b"a", b"ab", b"b\xff"]
_LIMITS = (None, 0, 1, 3, 100)


def _assert_reads_match(store: OrderedKVMap, model: dict, bounds=_FINAL_BOUNDS) -> None:
    ordered = sorted(model.items())
    assert len(store) == len(ordered)
    assert list(store.iter_range()) == ordered
    for start, end in itertools.product(bounds, repeat=2):
        inside = [
            (k, v)
            for k, v in ordered
            if (start is None or k >= start) and (end is None or k < end)
        ]
        assert len(store.range(start, end)) == len(inside)
        assert list(store.iter_range(start, end)) == inside
        for ascending in (True, False):
            expected = inside if ascending else inside[::-1]
            for limit in _LIMITS:
                assert store.range(start, end, limit, ascending) == expected[:limit]


_key = st.sampled_from(_KEYS)
_value = st.binary(max_size=3)
_step = st.one_of(
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("delete"), _key),
    # A read between writes folds the buffer at that point in the history.
    st.tuples(st.just("read"), st.sampled_from(_BOUNDS), st.sampled_from(_BOUNDS)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_step, max_size=60))
def test_history_matches_dict_and_sorted(steps):
    store, model = OrderedKVMap(), {}
    for step in steps:
        kind = step[0]
        if kind == "put":
            store.put(step[1], step[2])
            model[step[1]] = step[2]
        elif kind == "delete":
            assert store.delete(step[1]) is (model.pop(step[1], None) is not None)
        else:
            _assert_reads_match(store, model, bounds=step[1:])
    _assert_reads_match(store, model)


class TestIndexStaysSorted:
    """The buffer's corner cases, spelled out."""

    def test_delete_of_a_key_still_buffered(self):
        store, model = OrderedKVMap(), {}
        for key in (b"m", b"z", b"c", b"a"):  # nothing read yet: all still buffered
            store.put(key, key)
            model[key] = key
        assert store.delete(b"c") is True
        del model[b"c"]
        _assert_reads_match(store, model)
        assert store.delete(b"c") is False

    def test_delete_then_reinsert(self):
        store, model = OrderedKVMap(), {}
        for key in (b"a", b"b", b"c"):
            store.put(key, b"1")
            model[key] = b"1"
        assert store.range(limit=1) == [(b"a", b"1")]
        for key in (b"b", b"c"):  # the tail itself, then below the new tail
            assert store.delete(key) is True
            store.put(key, b"2")
            model[key] = b"2"
            _assert_reads_match(store, model)

    def test_out_of_order_bulk_load_then_reads(self):
        store, model = OrderedKVMap(), {}
        for number in itertools.chain(range(500, 0, -7), range(3, 500, 11)):
            key = b"k%04d" % number
            store.put(key, b"v%d" % number)
            model[key] = b"v%d" % number
        bounds = [None, b"k0000", b"k0250", b"k0255", b"k9999"]
        _assert_reads_match(store, model, bounds)
        store.put(b"k0251", b"late")  # one key into a long list: not a re-sort
        model[b"k0251"] = b"late"
        _assert_reads_match(store, model, bounds)

    def test_key_past_the_tail_while_others_wait(self):
        store, model = OrderedKVMap(), {b"d": b"d", b"f": b"f"}
        store.put(b"d", b"d")
        store.put(b"f", b"f")
        assert len(store.range()) == 2  # d, f are in the list; the rest buffer
        for key in (b"b", b"e", b"z", b"a"):  # below, between, past the tail, below
            store.put(key, key)
            model[key] = key
        _assert_reads_match(store, model)
