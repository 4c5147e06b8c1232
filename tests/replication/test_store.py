"""Unit tests for versioned records and per-node replica stores."""

import pytest

from repro.replication import (
    MISSING_SEQ,
    ReplicaStore,
    decode_record,
    encode_record,
    record_seq,
)


class TestRecordEncoding:
    def test_round_trip(self):
        record = encode_record(42, b"payload")
        assert decode_record(record) == (42, b"payload")
        assert record_seq(record) == 42

    def test_tombstone(self):
        record = encode_record(7, None)
        seq, value = decode_record(record)
        assert seq == 7
        assert value is None

    def test_empty_value_is_not_a_tombstone(self):
        seq, value = decode_record(encode_record(1, b""))
        assert value == b""

    def test_missing_seq(self):
        assert record_seq(None) == MISSING_SEQ

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            encode_record(-1, b"x")


def _store() -> ReplicaStore:
    """A store on the dict engine whose changes nobody watches."""
    return ReplicaStore(None, lambda namespace, key: None)


class TestReplicaStore:
    def test_newest_wins(self):
        store = _store()
        assert store.apply_record("ns", b"k", encode_record(2, b"new"))
        # An older record never overwrites a newer one.
        assert not store.apply_record("ns", b"k", encode_record(1, b"old"))
        assert decode_record(store.get_record("ns", b"k")) == (2, b"new")

    def test_tombstone_supersedes_value(self):
        store = _store()
        store.apply_record("ns", b"k", encode_record(1, b"v"))
        store.apply_record("ns", b"k", encode_record(2, None))
        seq, value = decode_record(store.get_record("ns", b"k"))
        assert (seq, value) == (2, None)
        # The tombstone still occupies a slot (needed for propagation).
        assert len(store.range_records("ns", None, None)) == 1

    def test_range_records_include_tombstones(self):
        store = _store()
        store.apply_record("ns", b"a", encode_record(1, b"v"))
        store.apply_record("ns", b"b", encode_record(2, None))
        keys = [key for key, _ in store.range_records("ns", None, None)]
        assert keys == [b"a", b"b"]

    def test_discard(self):
        store = _store()
        store.apply_record("ns", b"k", encode_record(1, b"v"))
        assert store.discard("ns", b"k")
        assert not store.discard("ns", b"k")
        assert store.get_record("ns", b"k") is None
        assert store.seq_of("other", b"k") == MISSING_SEQ
