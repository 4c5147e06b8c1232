"""Unit tests for sorted segment files (format, filters, range scans)."""

import os
import zlib

import pytest

from repro.kvstore.engine.segment import Segment, SegmentError, write_segment


def _items(count: int):
    return [(f"k{index:04d}".encode(), f"v{index}".encode()) for index in range(count)]


def backwards(segment, start=None, end=None):
    """A descending range scan: the blocks walked from the end."""
    return [
        entry
        for block in segment.iter_blocks(start, end, ascending=False)
        for entry in block
    ]


@pytest.fixture
def segment(tmp_path):
    path = str(tmp_path / "seg-00000000.seg")
    write_segment(path, "data", _items(200), sparse_every=8)
    seg = Segment(path)
    yield seg
    seg.close()


class TestRoundTrip:
    def test_metadata(self, segment):
        assert segment.namespace == "data"
        assert segment.entry_count == 200
        assert segment.min_key == b"k0000"
        assert segment.max_key == b"k0199"
        assert segment.size_bytes == os.path.getsize(segment.path)

    def test_point_lookups(self, segment):
        for index in (0, 1, 7, 8, 99, 198, 199):
            found, value = segment.get(f"k{index:04d}".encode())
            assert found and value == f"v{index}".encode()
        assert segment.get(b"k0200") == (False, None)
        assert segment.get(b"a") == (False, None)
        assert segment.get(b"z") == (False, None)
        # A key inside the range but absent from the file.
        assert segment.get(b"k0005x") == (False, None)

    def test_bloom_rejects_out_of_range(self, segment):
        assert not segment.maybe_contains(b"zzz")
        assert not segment.maybe_contains(b"")
        assert segment.maybe_contains(b"k0042")

    def test_full_scan_ascending_and_descending(self, segment):
        expected = _items(200)
        assert list(segment.iter_range()) == expected
        assert backwards(segment) == expected[::-1]

    def test_bounded_scans(self, segment):
        rows = list(segment.iter_range(b"k0010", b"k0015"))
        assert [key for key, _ in rows] == [
            f"k{index:04d}".encode() for index in range(10, 15)
        ]
        rows = backwards(segment, b"k0010", b"k0015")
        assert [key for key, _ in rows] == [
            f"k{index:04d}".encode() for index in range(14, 9, -1)
        ]
        # Bounds falling between keys behave as half-open intervals.
        assert [k for k, _ in segment.iter_range(b"k0197x", None)] == [b"k0198", b"k0199"]
        assert list(segment.iter_range(b"x", b"z")) == []

    def test_delete_markers_roundtrip(self, tmp_path):
        path = str(tmp_path / "seg-00000001.seg")
        write_segment(path, "data", [(b"a", b"1"), (b"b", None), (b"c", b"3")])
        seg = Segment(path)
        try:
            assert seg.get(b"b") == (True, None)
            assert list(seg.iter_range()) == [(b"a", b"1"), (b"b", None), (b"c", b"3")]
        finally:
            seg.close()

    def test_empty_segment(self, tmp_path):
        path = str(tmp_path / "seg-00000002.seg")
        assert write_segment(path, "data", []) == 0
        seg = Segment(path)
        try:
            assert seg.entry_count == 0
            assert seg.get(b"k") == (False, None)
            assert list(seg.iter_range()) == []
        finally:
            seg.close()


class _BloomBuilder:
    """The key filter as it was first built, one ``add`` per key: the
    reference ``write_segment``'s inlined bit-setting is pinned against."""

    def __init__(self, expected_keys: int):
        self.nbits = max(64, expected_keys * 10)
        self.bits = bytearray((self.nbits + 7) // 8)

    def add(self, key: bytes) -> None:
        h1, h2 = zlib.crc32(key), zlib.crc32(key, 0x9E3779B9) | 1
        for probe in range(h1, h1 + 4 * h2, h2):
            probe %= self.nbits
            self.bits[probe >> 3] |= 1 << (probe & 7)


class TestKeyFilter:
    @pytest.mark.parametrize("expected_keys", [0, 200, 1000])
    def test_filter_is_bit_identical_to_the_per_key_builder(self, tmp_path, expected_keys):
        path = str(tmp_path / "seg-00000000.seg")
        items = _items(200) + [(bytes([255, index]), None) for index in range(40)]
        write_segment(path, "data", iter(items), expected_keys=expected_keys)
        reference = _BloomBuilder(expected_keys or len(items))
        for key, _value in items:
            reference.add(key)
        seg = Segment(path)
        try:
            assert seg._bloom_nbits == reference.nbits
            assert seg._bloom_hashes == 4
            assert seg._bloom_bits == bytes(reference.bits)
            assert all(seg.maybe_contains(key) for key, _value in items)
            absent = [b"k%04dx" % index for index in range(1000)]
            assert sum(seg.maybe_contains(key) for key in absent) < 60  # ~2% at 10 bits/key
        finally:
            seg.close()


class TestValidation:
    def test_out_of_order_items_raise(self, tmp_path):
        path = str(tmp_path / "bad.seg")
        with pytest.raises(SegmentError):
            write_segment(path, "data", [(b"b", b"1"), (b"a", b"2")])
        with pytest.raises(SegmentError):
            write_segment(path, "data", [(b"a", b"1"), (b"a", b"2")])

    def test_partial_write_leaves_no_segment(self, tmp_path):
        # write_segment goes through a temporary name, so a failed write
        # never leaves a file under the real name.
        path = str(tmp_path / "seg-00000003.seg")
        with pytest.raises(SegmentError):
            write_segment(path, "data", [(b"b", b"1"), (b"a", b"2")])
        assert not os.path.exists(path)

    def test_truncated_file_fails_validation(self, tmp_path):
        path = str(tmp_path / "seg-00000004.seg")
        write_segment(path, "data", _items(50))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SegmentError):
            Segment(path)

    def test_corrupt_footer_fails_validation(self, tmp_path):
        path = str(tmp_path / "seg-00000005.seg")
        write_segment(path, "data", _items(50))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 30)
            handle.write(b"\xff")
        with pytest.raises(SegmentError):
            Segment(path)

    def test_missing_file_fails_validation(self, tmp_path):
        with pytest.raises(SegmentError):
            Segment(str(tmp_path / "absent.seg"))

    def test_bad_header_fails_validation(self, tmp_path):
        path = str(tmp_path / "seg-00000006.seg")
        write_segment(path, "data", _items(10))
        with open(path, "r+b") as handle:
            handle.write(b"NOPE")
        with pytest.raises(SegmentError):
            Segment(path)


class _PreadCounter:
    """Stands in for ``os.pread``: counts calls and bytes, then really reads."""

    def __init__(self, real, at_most=None):
        self._real = real
        self._at_most = at_most
        self.calls = 0
        self.bytes = 0

    def __call__(self, fd, length, offset):
        if self._at_most is not None:
            length = min(length, self._at_most)
        data = self._real(fd, length, offset)
        self.calls += 1
        self.bytes += len(data)
        return data


@pytest.fixture
def preads(monkeypatch):
    counter = _PreadCounter(os.pread)
    monkeypatch.setattr(os, "pread", counter)
    return counter


class TestReadsOnlyWhatItMust:
    """Disk reads are counted at the syscall: a rejected lookup costs none."""

    def _filter_rejected_key(self, segment) -> bytes:
        for index in range(200):
            key = f"k{index:04d}x".encode()
            if not segment.maybe_contains(key):
                return key
        raise AssertionError("the filter admitted 200 absent keys")

    def test_get_outside_the_key_bounds_reads_nothing(self, segment, preads):
        assert segment.get(b"a") == (False, None)
        assert segment.get(b"k0200") == (False, None)
        assert segment.get(b"") == (False, None)
        assert preads.calls == 0

    def test_get_rejected_by_the_filter_reads_nothing(self, segment, preads):
        key = self._filter_rejected_key(segment)
        assert segment.min_key < key < segment.max_key
        assert segment.get(key) == (False, None)
        assert preads.calls == 0

    def test_hit_reads_exactly_one_block(self, segment, preads):
        start, end = segment._block_bounds(segment._block_for(b"k0101"))
        assert segment.get(b"k0101") == (True, b"v101")
        assert (preads.calls, preads.bytes) == (1, end - start)

    def test_range_over_a_disjoint_segment_reads_nothing(self, segment, preads):
        for scan in (lambda *bounds: list(segment.iter_range(*bounds)),
                     lambda *bounds: backwards(segment, *bounds)):
            assert scan(b"x", b"z") == []
            assert scan(None, b"k0000") == []
            assert scan(b"k0199\x00", None) == []
            assert scan(b"a", b"b") == []
        assert preads.calls == 0

    def test_bounded_range_reads_only_the_blocks_it_covers(self, segment, preads):
        # sparse_every=8: k0010..k0014 lie in the block anchored at k0008.
        rows = list(segment.iter_range(b"k0010", b"k0015"))
        assert len(rows) == 5 and preads.calls == 1
        rows = backwards(segment, b"k0010", b"k0015")
        assert len(rows) == 5 and preads.calls == 2

    def test_limited_range_stops_at_the_block_where_the_limit_is_reached(
        self, segment, preads
    ):
        # sparse_every=8: blocks are anchored at k0000, k0008, k0016, ...
        expected = _items(200)
        assert segment.read_range(b"k0010", None, 3) == expected[10:13]
        assert preads.calls == 1  # k0010..k0012 lie in one block
        assert segment.read_range(b"k0010", None, 6) == expected[10:16]
        assert preads.calls == 2  # ... and k0015 ends it: the next is not read
        assert segment.read_range(b"k0010", b"k0100", 7) == expected[10:17]
        assert preads.calls == 4  # the seventh entry is the next block's first
        assert segment.read_range(None, b"k0100", 3, ascending=False) == expected[99:96:-1]
        assert preads.calls == 5  # k0096..k0099 head the last covered block
        assert segment.read_range(None, b"k0098", 3, ascending=False) == expected[97:94:-1]
        assert preads.calls == 7
        # A range that ends before its limit reads what it covers, no more.
        assert segment.read_range(b"k0190", None, 50) == expected[190:]
        assert preads.calls == 9

    def test_tree_hashes_a_key_once_for_all_its_segments(self, tmp_path, monkeypatch):
        from repro.kvstore.engine import lsm, segment as segment_module

        engine = lsm.LsmEngine(str(tmp_path / "node"), memtable_budget_bytes=1 << 20)
        try:
            tree = engine.map("data")
            for generation in range(3):
                for index in range(generation, 30, 3):
                    tree.put(f"k{index:04d}".encode(), b"v%d" % generation)
                engine.flush()
            assert len(tree.segments) == 3
            hashed = []
            real = lsm.filter_hashes
            monkeypatch.setattr(
                lsm, "filter_hashes", lambda key: hashed.append(key) or real(key)
            )

            def never(key):
                raise AssertionError("a segment hashed the key itself")

            monkeypatch.setattr(segment_module, "filter_hashes", never)
            assert tree.get(b"k0000") == b"v0"  # the oldest run: all three asked
            assert tree.get(b"k0031") is None
            assert hashed == [b"k0000", b"k0031"]
        finally:
            engine.close()

    def test_tree_range_leaves_a_disjoint_run_unread(self, tmp_path, preads):
        from repro.kvstore.engine.lsm import LsmEngine

        engine = LsmEngine(str(tmp_path / "node"), memtable_budget_bytes=1 << 20)
        try:
            tree = engine.map("data")
            for prefix in (b"a", b"m"):
                for index in range(40):
                    tree.put(prefix + b"%03d" % index, b"v")
                engine.flush()
            before = preads.calls
            assert len(tree.range(b"m", b"n", 5)) == 5
            assert len(tree.range(b"m", b"n", 5, ascending=False)) == 5
            assert preads.calls - before == 2  # one block of the "m" run each
        finally:
            engine.close()


class TestShortReads:
    def test_short_reads_are_completed(self, tmp_path, monkeypatch):
        path = str(tmp_path / "seg-00000007.seg")
        write_segment(path, "data", _items(100), sparse_every=8)
        dribble = _PreadCounter(os.pread, at_most=7)
        monkeypatch.setattr(os, "pread", dribble)
        seg = Segment(path)
        try:
            assert seg.entry_count == 100
            assert seg.get(b"k0042") == (True, b"v42")
            assert list(seg.iter_range()) == _items(100)
        finally:
            seg.close()
        assert dribble.calls > 100

    def test_file_cut_short_under_an_open_segment_raises(self, tmp_path):
        path = str(tmp_path / "seg-00000008.seg")
        write_segment(path, "data", _items(100), sparse_every=8)
        seg = Segment(path)
        try:
            with open(path, "r+b") as handle:
                handle.truncate(40)
            with pytest.raises(SegmentError):
                seg.get(b"k0042")
        finally:
            seg.close()

    def test_closed_segment_refuses_reads(self, segment):
        segment.close()
        with pytest.raises(ValueError):
            segment.get(b"k0042")
