"""Unit tests for the in-memory ordered key/value map."""

import pytest

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

    def test_contains(self, populated):
        assert b"key00" in populated
        assert b"zzz" not in populated

    def test_rejects_non_bytes_keys(self):
        store = OrderedKVMap()
        with pytest.raises(TypeError):
            store.put("string", b"x")
        with pytest.raises(TypeError):
            store.put(b"x", 42)


class TestTestAndSet:
    def test_insert_if_absent_succeeds(self):
        store = OrderedKVMap()
        assert store.test_and_set(b"a", None, b"1") is True
        assert store.get(b"a") == b"1"

    def test_insert_if_absent_fails_when_present(self, populated):
        assert populated.test_and_set(b"key00", None, b"x") is False
        assert populated.get(b"key00") == b"value0"

    def test_swap_with_expected_value(self, populated):
        assert populated.test_and_set(b"key00", b"value0", b"next") is True
        assert populated.get(b"key00") == b"next"

    def test_swap_with_wrong_expected_value(self, populated):
        assert populated.test_and_set(b"key00", b"wrong", b"next") is False


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
        assert populated.count_range(b"key02", b"key05") == 3
        assert populated.count_range() == 10
        assert populated.count_range(b"zzz", None) == 0

    def test_iter_items_sorted(self, populated):
        keys = [k for k, _ in populated.iter_items()]
        assert keys == sorted(keys)

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0
        assert populated.range() == []
