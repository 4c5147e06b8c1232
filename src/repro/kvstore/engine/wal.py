"""Write-ahead log with torn-tail detection.

Every mutation the LSM engine accepts is appended here *before* it touches
the memtable, so an acknowledged write survives a crash that loses all
in-memory state.  The log is a single append-only file of CRC-framed
records::

    record = crc32(payload) (4 bytes BE) | len(payload) (4 bytes BE) | payload
    payload = op (1 byte) | ns_len (2) | ns | key_len (4) | key [| val_len (4) | val]

Ops: ``1`` put; ``2`` delete, an engine-level physical removal that only
anti-entropy's discard writes (a key the node no longer replicates after a
rebalance) — *replication tombstones* are ordinary puts whose value encodes
the tombstone flag; ``3`` drop-namespace (``key_len`` 0, no key), which
today's engine never writes but still replays, for the files of earlier
engines.

Replay reads records until the file ends or a frame fails its length or
CRC check.  A bad frame is a **torn tail** — the crash interrupted the last
append — so everything from that offset on is dropped and the file is
truncated back to the last good record.  Any record before the tear was
fully written before its writer was acknowledged, so acknowledged writes
are never lost; the torn record itself was never acknowledged.

The log is reset (truncated to empty) only after a memtable flush has
durably written its segment files, so at every instant ``segments + WAL``
covers the full acknowledged history.

The frame is the unit of work: the file is opened unbuffered and a record is
one ``bytes`` object — header and payload, the payload led by a cached
``op | ns_len | ns`` prefix — handed to one ``os.write``.  A short write is
completed by further writes; a crash between them leaves exactly the torn
tail replay drops.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

_FRAME = struct.Struct(">II")
_NS_LEN = struct.Struct(">H")
_KEY_LEN = struct.Struct(">I")

OP_PUT = 1
OP_DELETE = 2
OP_DROP_NAMESPACE = 3

#: One replayed operation: ``(op, namespace, key, value)``; ``key``/``value``
#: are empty for ops that do not carry them.
WalOp = Tuple[int, str, bytes, bytes]


@dataclass
class WalReplay:
    """Outcome of replaying one log file."""

    ops: List[WalOp] = field(default_factory=list)
    #: File offset just past the last intact record.
    good_offset: int = 0
    #: Bytes dropped from a torn tail (0 on a clean log).
    torn_bytes: int = 0


def _decode(payload: bytes) -> Optional[WalOp]:
    try:
        op = payload[0]
        offset = 1
        (ns_len,) = _NS_LEN.unpack_from(payload, offset)
        offset += _NS_LEN.size
        namespace = payload[offset : offset + ns_len].decode("utf-8")
        offset += ns_len
        (key_len,) = _KEY_LEN.unpack_from(payload, offset)
        offset += _KEY_LEN.size
        key = payload[offset : offset + key_len]
        offset += key_len
        value = b""
        if op == OP_PUT:
            (val_len,) = _KEY_LEN.unpack_from(payload, offset)
            offset += _KEY_LEN.size
            value = payload[offset : offset + val_len]
            if len(value) != val_len:
                return None
            offset += val_len
        if len(key) != key_len or offset != len(payload):
            return None
        if op not in (OP_PUT, OP_DELETE, OP_DROP_NAMESPACE):
            return None
        return op, namespace, key, value
    except (IndexError, struct.error, UnicodeDecodeError):
        return None


class WriteAheadLog:
    """Append-only CRC-framed log backing one engine's memtables."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        #: Unbuffered and append-only; ``-1`` once closed, so a late append
        #: raises instead of reaching whatever reuses the descriptor.
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        #: ``op | ns_len | ns`` by ``(op, namespace)``: the bytes every
        #: record of one kind in one namespace starts with.
        self._prefixes: Dict[Tuple[int, str], bytes] = {}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _prefix(self, op: int, namespace: str) -> bytes:
        ns = namespace.encode("utf-8")
        prefix = bytes([op]) + _NS_LEN.pack(len(ns)) + ns
        self._prefixes[op, namespace] = prefix
        return prefix

    def _append(self, op: int, namespace: str, *fields: bytes) -> None:
        prefix = self._prefixes.get((op, namespace)) or self._prefix(op, namespace)
        payload = b"".join((prefix, *fields))
        frame = _FRAME.pack(zlib.crc32(payload), len(payload)) + payload
        written = os.write(self._fd, frame)
        while written < len(frame):
            written += os.write(self._fd, frame[written:])
        if self.sync:
            os.fsync(self._fd)

    def append_put(self, namespace: str, key: bytes, value: bytes) -> None:
        self._append(
            OP_PUT, namespace,
            _KEY_LEN.pack(len(key)), key, _KEY_LEN.pack(len(value)), value,
        )

    def append_delete(self, namespace: str, key: bytes) -> None:
        self._append(OP_DELETE, namespace, _KEY_LEN.pack(len(key)), key)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def reset(self) -> None:
        """Truncate the log to empty (call only after a durable flush)."""
        os.ftruncate(self._fd, 0)  # O_APPEND: the next write lands at 0
        if self.sync:
            os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: str, truncate_torn_tail: bool = True) -> WalReplay:
        """Read every intact record; optionally truncate a torn tail."""
        replay = WalReplay()
        try:
            size = os.path.getsize(path)
        except OSError:
            return replay
        with open(path, "rb") as handle:
            offset = 0
            while True:
                header = handle.read(_FRAME.size)
                if len(header) < _FRAME.size:
                    break
                crc, length = _FRAME.unpack(header)
                payload = handle.read(length)
                if len(payload) < length or zlib.crc32(payload) != crc:
                    break
                op = _decode(payload)
                if op is None:
                    break
                replay.ops.append(op)
                offset += _FRAME.size + length
        replay.good_offset = offset
        replay.torn_bytes = max(0, size - offset)
        if replay.torn_bytes and truncate_torn_tail:
            with open(path, "r+b") as handle:
                handle.truncate(offset)
        return replay
