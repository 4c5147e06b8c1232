"""Append-only sorted segment files with sparse indexes and key filters.

A segment is one immutable sorted run of ``(key, value)`` entries flushed
from a memtable (or built by compaction / bulk load).  The file layout::

    header   "SEG1"
    entries  [ key_len u32 | val_len u32 | key | value ]*    (key-ascending)
    footer   ns_len u16 | namespace
             entry_count u64
             min_key_len u32 | min_key | max_key_len u32 | max_key
             index_count u32 | [ key_len u32 | key | offset u64 ]*
             bloom_nbits u32 | bloom_hashes u8 | bloom_len u32 | bits
    trailer  footer_offset u64 | footer_crc u32 | "SEGF"

``val_len == 0xFFFFFFFF`` marks an engine-level **delete marker** (the key
was physically removed after this run's predecessors were written); markers
are dropped when a compaction includes the oldest segment, since nothing
older remains to shadow.

Readers validate the trailer magic and the footer CRC before trusting a
file: a partially written segment (the crash hit mid-flush) fails
validation, is discarded by recovery, and its contents are re-read from the
WAL — which is reset only after a flush completes.

The block is the unit of work in both directions.  A writer assembles each
sparse block (``sparse_every`` entries) and hands the file one buffer per
block.  The file is opened unbuffered for reading and every read is one
positioned ``os.pread`` of exactly the bytes wanted — the footer once at
open, then one block at a time through :meth:`Segment._read_block` — and one
function, :func:`_scan_block`, walks a block's raw bytes: it steps over
entries below ``start`` by their lengths, slices a value only for an entry
it returns, and stops at ``end`` or at a ``limit``.  Every read is built on
it, so entries a read will not return never become Python objects.

A point lookup first checks ``[min_key, max_key]``, then the bloom-style key
filter (k probes derived from two CRC32s of the key, which the caller may
compute once and share across every segment it asks), and only then scans
the one block the sparse index names.  Range reads skip a segment whose key
bounds miss the range and seek the block containing ``start``; a limited
read (:meth:`Segment.read_range`) stops at the block where its limit is
reached, and an unlimited one (:meth:`Segment.iter_blocks`) streams one
block's entries at a time — descending reads take the blocks in reverse and
reverse each block's list — so memory stays bounded by the block size,
never the range size.
"""

from __future__ import annotations

import bisect
import os
import struct
import zlib
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

_HEADER = b"SEG1"
_TRAILER_MAGIC = b"SEGF"
_TRAILER = struct.Struct(">QI4s")
_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_ENTRY = struct.Struct(">II")
_ENTRY_SIZE = _ENTRY.size

#: ``val_len`` sentinel marking an engine-level delete.
_DELETE_LEN = 0xFFFFFFFF

#: Bits per key / probe count for the key filter (~2% false positives).
_BLOOM_BITS_PER_KEY = 10
_BLOOM_HASHES = 4

#: One stored entry: ``(key, value)``, the value ``None`` for a delete marker.
Entry = Tuple[bytes, Optional[bytes]]

#: The segment writer's file buffer.  It is handed whole blocks, so it holds
#: several: a write syscall carries about as many bytes as it did when the
#: writer was handed entry pieces, and there are no more of them.
_WRITE_BUFFER = 1 << 16


class SegmentError(Exception):
    """A segment file is missing, truncated, or fails validation."""


def filter_hashes(key: bytes) -> Tuple[int, int]:
    """The two hashes every key-filter probe of ``key`` derives from.

    They depend on the key alone, so a lookup that asks several segments
    computes them once (:meth:`Segment.get`).
    """
    return zlib.crc32(key), zlib.crc32(key, 0x9E3779B9) | 1


def write_segment(
    path: str,
    namespace: str,
    items: Iterable[Tuple[bytes, Optional[bytes]]],
    sparse_every: int = 32,
    expected_keys: int = 0,
) -> int:
    """Write one sorted run to ``path``; return the entry count.

    ``items`` must be key-ascending with no duplicate keys; a ``None``
    value writes a delete marker.  ``expected_keys`` (an upper bound on the
    count) sizes the key filter; without it the items are counted first.
    The file is written to a temporary name and renamed into place so a
    crash mid-write can never leave a file that *both* carries the real
    name and passes validation.
    """
    if not expected_keys:
        items = list(items)
        expected_keys = max(len(items), 1)
    nbits = max(64, expected_keys * _BLOOM_BITS_PER_KEY)
    bits = bytearray((nbits + 7) // 8)
    probe_span = range(_BLOOM_HASHES)
    pack_lengths = _ENTRY.pack
    entries = 0
    anchors: List[bytes] = []  # each block's first key: the sparse index
    offsets: List[int] = []
    block: List[bytes] = []
    last_key: Optional[bytes] = None
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb", buffering=_WRITE_BUFFER) as handle:
        handle.write(_HEADER)
        offset = len(_HEADER)
        for key, value in items:
            if last_key is not None and key <= last_key:
                raise SegmentError(
                    f"segment items out of order: {key!r} after {last_key!r}"
                )
            last_key = key
            if entries % sparse_every == 0:
                # One buffer per block: the file sees whole blocks only.
                data = b"".join(block)
                handle.write(data)
                offset += len(data)
                block.clear()
                anchors.append(key)
                offsets.append(offset)
            # The probe sequence ``Segment._filter_admits`` walks.
            probe, stride = filter_hashes(key)
            for _ in probe_span:
                bit = probe % nbits
                bits[bit >> 3] |= 1 << (bit & 7)
                probe += stride
            if value is None:
                block += (pack_lengths(len(key), _DELETE_LEN), key)
            else:
                block += (pack_lengths(len(key), len(value)), key, value)
            entries += 1
        data = b"".join(block)
        handle.write(data)
        footer_offset = offset + len(data)
        ns = namespace.encode("utf-8")
        min_key = anchors[0] if anchors else b""
        max_key = last_key or b""
        footer_parts: List[bytes] = [
            _U16.pack(len(ns)) + ns,
            _U64.pack(entries),
            _U32.pack(len(min_key)) + min_key,
            _U32.pack(len(max_key)) + max_key,
            _U32.pack(len(anchors)),
        ]
        for anchor, anchor_offset in zip(anchors, offsets):
            footer_parts.append(_U32.pack(len(anchor)) + anchor)
            footer_parts.append(_U64.pack(anchor_offset))
        footer_parts.append(_U32.pack(nbits))
        footer_parts.append(bytes([_BLOOM_HASHES]))
        footer_parts.append(_U32.pack(len(bits)) + bytes(bits))
        footer = b"".join(footer_parts)
        handle.write(footer)
        handle.write(
            _TRAILER.pack(footer_offset, zlib.crc32(footer), _TRAILER_MAGIC)
        )
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return entries


def _scan_block(
    data: bytes,
    start: Optional[bytes] = None,
    end: Optional[bytes] = None,
    limit: Optional[int] = None,
) -> List[Entry]:
    """One block's entries with ``start <= key < end``, the first ``limit``.

    The one place entry bytes are walked.  Entries below ``start`` are
    stepped over by their lengths alone: only the key is sliced (to compare
    it), never the value.  ``limit`` is positive or ``None``.
    """
    unpack_lengths = _ENTRY.unpack_from
    out: List[Entry] = []
    pos, size = 0, len(data)
    while pos < size:
        key_len, val_len = unpack_lengths(data, pos)
        key_at = pos + _ENTRY_SIZE
        val_at = key_at + key_len
        pos = val_at if val_len == _DELETE_LEN else val_at + val_len
        key = data[key_at:val_at]
        if start is not None:
            if key < start:
                continue
            start = None  # keys ascend: every later one passes too
        if end is not None and key >= end:
            break
        out.append((key, None if val_len == _DELETE_LEN else data[val_at:pos]))
        if len(out) == limit:
            break
    return out


class Segment:
    """A validated, opened segment file serving reads."""

    def __init__(self, path: str):
        self.path = path
        try:
            # Unbuffered: every read below is one explicit pread of exactly
            # the bytes wanted, so a buffer would only read (and copy) more.
            self._file = open(path, "rb", buffering=0)
        except OSError as exc:
            raise SegmentError(f"cannot open segment {path}: {exc}") from exc
        try:
            self._load_footer()
        except SegmentError:
            self._file.close()
            raise
        except Exception as exc:
            self._file.close()
            raise SegmentError(f"corrupt segment {path}: {exc}") from exc

    def _pread(self, offset: int, length: int) -> bytes:
        """``length`` bytes at ``offset`` (a closed segment raises ``ValueError``)."""
        fd = self._file.fileno()
        data = os.pread(fd, length, offset)
        while len(data) < length:
            more = os.pread(fd, length - len(data), offset + len(data))
            if not more:
                raise SegmentError(
                    f"segment {self.path} ends inside a read at {offset}+{length}"
                )
            data += more
        return data

    def _load_footer(self) -> None:
        size = os.fstat(self._file.fileno()).st_size
        if size < len(_HEADER) + _TRAILER.size:
            raise SegmentError(f"segment {self.path} is truncated ({size} bytes)")
        if self._pread(0, len(_HEADER)) != _HEADER:
            raise SegmentError(f"segment {self.path} has a bad header")
        footer_offset, footer_crc, magic = _TRAILER.unpack(
            self._pread(size - _TRAILER.size, _TRAILER.size)
        )
        if magic != _TRAILER_MAGIC:
            raise SegmentError(f"segment {self.path} has no trailer (torn write)")
        footer_len = size - _TRAILER.size - footer_offset
        if footer_len < 0:
            raise SegmentError(f"segment {self.path} footer offset out of range")
        footer = self._pread(footer_offset, footer_len)
        if zlib.crc32(footer) != footer_crc:
            raise SegmentError(f"segment {self.path} footer fails its CRC")
        view = memoryview(footer)
        pos = 0
        (ns_len,) = _U16.unpack_from(view, pos)
        pos += _U16.size
        self.namespace = bytes(view[pos : pos + ns_len]).decode("utf-8")
        pos += ns_len
        (self.entry_count,) = _U64.unpack_from(view, pos)
        pos += _U64.size
        (min_len,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        self.min_key = bytes(view[pos : pos + min_len])
        pos += min_len
        (max_len,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        self.max_key = bytes(view[pos : pos + max_len])
        pos += max_len
        (index_count,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        self._index_keys: List[bytes] = []
        self._index_offsets: List[int] = []
        for _ in range(index_count):
            (key_len,) = _U32.unpack_from(view, pos)
            pos += _U32.size
            self._index_keys.append(bytes(view[pos : pos + key_len]))
            pos += key_len
            (anchor_offset,) = _U64.unpack_from(view, pos)
            pos += _U64.size
            self._index_offsets.append(anchor_offset)
        (self._bloom_nbits,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        self._bloom_hashes = view[pos]
        pos += 1
        (bloom_len,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        self._bloom_bits = bytes(view[pos : pos + bloom_len])
        pos += bloom_len
        if pos != footer_len:
            raise SegmentError(f"segment {self.path} footer has trailing bytes")
        # A block ends where the next begins; the last one, at the footer.
        self._index_offsets.append(footer_offset)
        self.size_bytes = size

    # ------------------------------------------------------------------
    # Filters / index
    # ------------------------------------------------------------------
    def _filter_admits(self, probe: int, stride: int) -> bool:
        """Test the probe sequence ``write_segment`` set: ``probe + i * stride``."""
        bits, nbits = self._bloom_bits, self._bloom_nbits
        remaining = self._bloom_hashes
        while remaining:
            bit = probe % nbits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            probe += stride
            remaining -= 1
        return True

    def maybe_contains(self, key: bytes) -> bool:
        """False means definitely absent; True means "check the file"."""
        if not self.entry_count or key < self.min_key or key > self.max_key:
            return False
        return self._filter_admits(*filter_hashes(key))

    def _block_for(self, key: bytes) -> int:
        """Index of the sparse block that could hold ``key`` (-1 if before)."""
        return bisect.bisect_right(self._index_keys, key) - 1

    def _block_bounds(self, block: int) -> Tuple[int, int]:
        return self._index_offsets[block], self._index_offsets[block + 1]

    def _read_block(self, block: int) -> bytes:
        """One block's raw entry bytes: the engine's only data-path disk read."""
        start, end = self._block_bounds(block)
        return self._pread(start, end - start)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(
        self, key: bytes, hashes: Optional[Tuple[int, int]] = None
    ) -> Tuple[bool, Optional[bytes]]:
        """``(found, value)``; a found delete marker is ``(True, None)``.

        ``hashes`` is :func:`filter_hashes` of ``key`` when the caller has
        it already.  Nothing is read from disk unless the key lies inside
        the segment's bounds and passes its filter.
        """
        if not self.entry_count or key < self.min_key or key > self.max_key:
            return False, None
        if not self._filter_admits(*(hashes or filter_hashes(key))):
            return False, None
        # min_key is the first anchor, so a key inside the bounds has a block.
        hit = _scan_block(self._read_block(self._block_for(key)), key, None, 1)
        if hit and hit[0][0] == key:
            return True, hit[0][1]
        return False, None

    def _blocks(
        self, start: Optional[bytes], end: Optional[bytes], ascending: bool
    ) -> range:
        """The blocks that can hold keys in ``[start, end)``, in scan order.

        Empty, with nothing read, when the key bounds miss the range.
        """
        if (
            not self.entry_count
            or (start is not None and start > self.max_key)
            or (end is not None and end <= self.min_key)
        ):
            return range(0)
        anchors = self._index_keys
        first = 0 if start is None else max(0, self._block_for(start))
        # The last block whose anchor lies below ``end``; ``end`` is above
        # min_key here, so there is one.
        last = len(anchors) - 1 if end is None else bisect.bisect_left(anchors, end) - 1
        return range(first, last + 1) if ascending else range(last, first - 1, -1)

    def read_range(
        self,
        start: Optional[bytes],
        end: Optional[bytes],
        limit: int,
        ascending: bool = True,
    ) -> List[Entry]:
        """The first ``limit`` (positive) entries of :meth:`iter_range`.

        No block past the one where the limit is reached is read.
        """
        out: List[Entry] = []
        for block in self._blocks(start, end, ascending):
            data = self._read_block(block)
            if ascending:
                out += _scan_block(data, start, end, limit - len(out))
            else:
                # Entries are framed forwards: take the block's tail.
                entries = _scan_block(data, start, end)
                entries.reverse()
                out += entries[: limit - len(out)]
            if len(out) >= limit:
                break
        return out

    def iter_blocks(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        ascending: bool = True,
    ) -> Iterator[List[Entry]]:
        """:meth:`iter_range`, one block's list of entries at a time."""
        for block in self._blocks(start, end, ascending):
            entries = _scan_block(self._read_block(block), start, end)
            if not ascending:
                entries.reverse()
            yield entries

    def iter_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Entry]:
        """Yield ``(key, value_or_None)`` with ``start <= key < end``, in
        key order (:meth:`iter_blocks` also walks backwards).

        Delete markers are yielded (value ``None``) — the LSM merge layer
        needs them to shadow older segments.  A segment whose key bounds
        miss the range yields nothing without reading anything.
        """
        return chain.from_iterable(self.iter_blocks(start, end))

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({os.path.basename(self.path)}, ns={self.namespace!r}, "
            f"entries={self.entry_count}, bytes={self.size_bytes})"
        )
