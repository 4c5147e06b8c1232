"""Order-preserving key encoding.

PIQL requires the key/value store to support *range requests* so that index
scans have data locality (Section 3).  For that to work, composite keys —
tuples of column values such as ``(owner, timestamp)`` — must be encoded as
byte strings whose lexicographic order equals the tuple order of the
original values.

The encoding here follows the well-known "tuple layer" approach: each value
is prefixed with a type tag, fixed-width numeric values are bias/flip
encoded so that signed comparisons become unsigned byte comparisons, and
strings are NUL-terminated with embedded NULs escaped.

Two properties are exercised heavily by the rest of the system (and covered
by property-based tests):

* **Order preservation** — ``encode_key(a) < encode_key(b)`` iff ``a < b``
  for tuples of the same shape.
* **Prefix ranges** — all keys whose first components equal a prefix ``p``
  fall in ``[encode_key(p), prefix_upper_bound(encode_key(p)))``, which is
  exactly the range an IndexScan issues for its equality predicates.

Order lives in the bytes, so a consumer that only *orders* entries never
decodes them: see :func:`skip_value` and :func:`ordering_bytes`.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import PiqlError

# Type tags.  Tag order defines cross-type ordering, but in practice a key
# position always holds a single type so only within-type order matters.
_TAG_NULL = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STRING = 0x05
_TAG_BYTES = 0x06

_INT_BIAS = 1 << 63
_STRING_TERMINATOR = b"\x00"
_STRING_ESCAPE = b"\x00\xff"

#: Encoded width, tag included, of the fixed-width types.
_FIXED_WIDTH = {_TAG_NULL: 1, _TAG_FALSE: 1, _TAG_TRUE: 1, _TAG_INT: 9, _TAG_FLOAT: 9}
#: ``bytes.translate`` table: every byte to its complement, reversing order.
_COMPLEMENT = bytes(range(255, -1, -1))


class KeyEncodingError(PiqlError):
    """Raised when a value cannot be encoded into (or decoded from) a key."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_value(value: Any) -> bytes:
    """Encode a single scalar value with its type tag."""
    if value is None:
        return bytes([_TAG_NULL])
    if isinstance(value, bool):
        return bytes([_TAG_TRUE if value else _TAG_FALSE])
    if isinstance(value, int):
        biased = value + _INT_BIAS
        if not (0 <= biased < (1 << 64)):
            raise KeyEncodingError(f"integer out of 64-bit range: {value}")
        return bytes([_TAG_INT]) + biased.to_bytes(8, "big")
    if isinstance(value, float):
        # ``+ 0.0`` folds -0.0 into 0.0: equal values, equal bytes.
        packed = struct.pack(">d", value + 0.0)
        if packed[0] & 0x80:
            # Negative: flip every bit so that more-negative sorts first.
            flipped = bytes(b ^ 0xFF for b in packed)
        else:
            # Positive: set the sign bit so positives sort after negatives.
            flipped = bytes([packed[0] | 0x80]) + packed[1:]
        return bytes([_TAG_FLOAT]) + flipped
    if isinstance(value, str):
        encoded = value.encode("utf-8").replace(b"\x00", _STRING_ESCAPE)
        return bytes([_TAG_STRING]) + encoded + _STRING_TERMINATOR
    if isinstance(value, (bytes, bytearray)):
        encoded = bytes(value).replace(b"\x00", _STRING_ESCAPE)
        return bytes([_TAG_BYTES]) + encoded + _STRING_TERMINATOR
    raise KeyEncodingError(f"cannot encode value of type {type(value).__name__}")


def encode_key(values: Sequence[Any]) -> bytes:
    """Encode a tuple of values into one order-preserving byte key."""
    return b"".join(encode_value(v) for v in values)


def prefix_upper_bound(prefix: bytes) -> bytes:
    """Exclusive upper bound of the range of keys extending ``prefix``.

    Works because every component starts with a type tag strictly below
    ``0xff``; see the module docstring.
    """
    return prefix + b"\xff"


def prefix_range(values: Sequence[Any]) -> Tuple[bytes, bytes]:
    """Inclusive-start / exclusive-end byte range of keys with this prefix."""
    prefix = encode_key(values)
    return prefix, prefix_upper_bound(prefix)


def successor(key: bytes) -> bytes:
    """Smallest byte string strictly greater than ``key``.

    Used by pagination cursors to resume a range scan *after* the last key
    already returned.
    """
    return key + b"\x00"


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _terminator_index(data: bytes, offset: int) -> int:
    """Index of the NUL ending the escaped sequence that starts at ``offset``."""
    end = data.find(_STRING_TERMINATOR, offset)
    # A NUL followed by 0xff is an escaped NUL, not the terminator.
    while end >= 0 and data[end + 1 : end + 2] == b"\xff":
        end = data.find(_STRING_TERMINATOR, end + 2)
    if end < 0:
        raise KeyEncodingError("unterminated string in encoded key")
    return end


def _decode_terminated(data: bytes, offset: int) -> Tuple[bytes, int]:
    """Decode an escaped, NUL-terminated byte sequence starting at ``offset``."""
    end = _terminator_index(data, offset)
    return data[offset:end].replace(_STRING_ESCAPE, _STRING_TERMINATOR), end + 1


def decode_value(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; return ``(value, next_offset)``."""
    if offset >= len(data):
        raise KeyEncodingError("unexpected end of encoded key")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_INT:
        if offset + 8 > len(data):
            raise KeyEncodingError("truncated integer in encoded key")
        biased = int.from_bytes(data[offset : offset + 8], "big")
        return biased - _INT_BIAS, offset + 8
    if tag == _TAG_FLOAT:
        if offset + 8 > len(data):
            raise KeyEncodingError("truncated float in encoded key")
        packed = data[offset : offset + 8]
        if packed[0] & 0x80:
            restored = bytes([packed[0] & 0x7F]) + packed[1:]
        else:
            restored = bytes(b ^ 0xFF for b in packed)
        return struct.unpack(">d", restored)[0], offset + 8
    if tag == _TAG_STRING:
        raw, next_offset = _decode_terminated(data, offset)
        return raw.decode("utf-8"), next_offset
    if tag == _TAG_BYTES:
        raw, next_offset = _decode_terminated(data, offset)
        return raw, next_offset
    raise KeyEncodingError(f"unknown type tag: {tag:#x}")


def decode_key(data: bytes, count: Optional[int] = None) -> List[Any]:
    """Decode an entire key (or its first ``count`` components)."""
    values: List[Any] = []
    offset = 0
    while offset < len(data):
        if count is not None and len(values) >= count:
            break
        value, offset = decode_value(data, offset)
        values.append(value)
    return values


# ----------------------------------------------------------------------
# Ordering without decoding
# ----------------------------------------------------------------------
def skip_value(data: bytes, offset: int = 0) -> int:
    """Offset just past the value at ``offset``: ``decode_value(...)[1]``, undecoded."""
    if offset >= len(data):
        raise KeyEncodingError("unexpected end of encoded key")
    tag = data[offset]
    width = _FIXED_WIDTH.get(tag)
    if width is None:
        if tag != _TAG_STRING and tag != _TAG_BYTES:
            raise KeyEncodingError(f"unknown type tag: {tag:#x}")
        return _terminator_index(data, offset + 1) + 1
    if offset + width > len(data):
        raise KeyEncodingError("truncated number in encoded key")
    return offset + width


def ordering_bytes(data: bytes, offset: int, directions: Sequence[bool]) -> bytes:
    """Bytes that order like the values at ``offset`` under ``directions``.

    One value per direction (``True`` = ascending) is cut out of ``data``, a
    descending one complemented.  Each then gets a sentinel (``00`` / ``ff``):
    ``"a"`` encodes to a prefix of ``"a\\x00b"`` and sorts first only because
    the next tag is never ``ff`` — which a complemented neighbour, or the end
    of the cut, no longer guarantees.
    """
    parts = []
    for ascending in directions:
        end = skip_value(data, offset)
        part = data[offset:end]
        parts.append(
            part + b"\x00" if ascending else part.translate(_COMPLEMENT) + b"\xff"
        )
        offset = end
    return b"".join(parts)
