"""Unit and property-based tests for the order-preserving key encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.keys import (
    KeyEncodingError,
    decode_key,
    decode_value,
    encode_key,
    encode_value,
    ordering_bytes,
    prefix_range,
    prefix_upper_bound,
    skip_value,
    successor,
)

scalars = st.one_of(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=30),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.none(),
)


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 1, -1, 2**40, -(2**40), 0.0, 3.25, -17.5, "", "hello",
         "with\x00null", "ünïcode", b"", b"bytes\x00more"],
    )
    def test_roundtrip(self, value):
        decoded, offset = decode_value(encode_value(value))
        assert decoded == value
        assert offset == len(encode_value(value))

    def test_key_roundtrip(self):
        values = ["alice", 42, True, None, 3.5]
        assert decode_key(encode_key(values)) == values

    def test_decode_key_prefix_count(self):
        encoded = encode_key(["alice", 42, "x"])
        assert decode_key(encoded, count=2) == ["alice", 42]

    def test_unencodable_type(self):
        with pytest.raises(KeyEncodingError):
            encode_value({"a": 1})

    def test_integer_out_of_range(self):
        with pytest.raises(KeyEncodingError):
            encode_value(2**64)

    def test_truncated_decode(self):
        with pytest.raises(KeyEncodingError):
            decode_value(encode_value(17)[:-2])

    def test_unterminated_string(self):
        with pytest.raises(KeyEncodingError):
            decode_value(b"\x05abc")

    @pytest.mark.parametrize(
        "tail", [b"", b"abc", b"\x00\xff", b"a\x00\xff\x00\xff", b"\x00\xff\xff"]
    )
    def test_unterminated_tail_after_escapes(self, tail):
        # An escaped NUL is not a terminator, wherever the data stops.
        for tag in (b"\x05", b"\x06"):
            with pytest.raises(KeyEncodingError):
                decode_value(tag + tail)


class TestOrdering:
    @pytest.mark.parametrize(
        "smaller,larger",
        [
            (1, 2), (-5, 3), (-5, -2), (0, 2**50),
            ("a", "b"), ("ab", "b"), ("ab", "ab0"), ("", "a"),
            (1.0, 2.5), (-3.5, -1.0), (-1.0, 0.5),
            (False, True),
        ],
    )
    def test_pairwise_order(self, smaller, larger):
        assert encode_value(smaller) < encode_value(larger)

    def test_composite_key_order(self):
        a = encode_key(["alice", 5])
        b = encode_key(["alice", 10])
        c = encode_key(["bob", 1])
        assert a < b < c

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=2, max_size=2),
           st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=2, max_size=2))
    def test_int_tuple_order_preserved(self, left, right):
        assert (encode_key(left) < encode_key(right)) == (tuple(left) < tuple(right))

    @given(st.lists(st.text(max_size=20), min_size=1, max_size=3),
           st.lists(st.text(max_size=20), min_size=1, max_size=3))
    @settings(max_examples=200)
    def test_string_tuple_order_preserved(self, left, right):
        if len(left) == len(right):
            assert (encode_key(left) < encode_key(right)) == (tuple(left) < tuple(right))

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_float_order_preserved(self, a, b):
        if a < b:
            assert encode_value(a) < encode_value(b)
        elif a > b:
            assert encode_value(a) > encode_value(b)

    @given(scalars)
    @settings(max_examples=300)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_value(encode_value(value))
        if isinstance(value, float) and value == 0.0:
            assert decoded == 0.0
        else:
            assert decoded == value


    # Byte strings dense in NULs and 0xff: embedded NULs, runs of the escape
    # pair itself, and values ending in either byte.
    nul_heavy = st.lists(
        st.sampled_from([b"\x00", b"\xff", b"\x00\xff", b"\xff\x00", b"a"]),
        max_size=12,
    ).map(b"".join)

    @given(st.lists(nul_heavy, min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_nul_heavy_bytes_roundtrip_inside_a_key(self, values):
        encoded = encode_key(values)
        assert decode_key(encoded) == values
        # Each component ends where the next begins.
        offset = 0
        for value in values:
            decoded, offset = decode_value(encoded, offset)
            assert decoded == value
        assert offset == len(encoded)
        # Dropping the last terminator leaves an unterminated tail.
        with pytest.raises(KeyEncodingError):
            decode_key(encoded[:-1])

    @given(nul_heavy, nul_heavy)
    def test_nul_heavy_bytes_order_preserved(self, a, b):
        assert (encode_value(a) < encode_value(b)) == (a < b)

    @given(st.text(alphabet="\x00a\xff", max_size=12))
    def test_nul_heavy_text_roundtrip(self, value):
        decoded, offset = decode_value(encode_value(value))
        assert decoded == value
        assert offset == len(encode_value(value))


class TestOrderingWithoutDecoding:
    """``skip_value`` and ``ordering_bytes`` read order off the bytes."""

    #: One column type each, NUL- and sign-heavy; a position may also be NULL.
    columns = {
        "int": st.integers(min_value=-(2**62), max_value=2**62),
        "float": st.floats(allow_nan=False),
        "text": st.text(alphabet="\x00a\xff", max_size=4),
        "bytes": st.binary(max_size=4) | TestOrdering.nul_heavy,
        "bool": st.booleans(),
    }

    @given(st.lists(scalars | TestOrdering.nul_heavy, min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_skip_value_is_decode_values_offset(self, values):
        encoded = encode_key(values)
        offset = 0
        while offset < len(encoded):
            assert skip_value(encoded, offset) == decode_value(encoded, offset)[1]
            offset = skip_value(encoded, offset)

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x03\x00", b"\x04" + b"\x00" * 7, b"\x05abc", b"\x06\x00\xff",
         b"\x07", b"\xfe"],
    )
    def test_skip_value_rejects_what_decode_value_rejects(self, data):
        for function in (skip_value, decode_value):
            with pytest.raises(KeyEncodingError):
                function(data)

    @given(st.data())
    @settings(max_examples=300)
    def test_ordering_bytes_order_like_the_values(self, data):
        kinds = data.draw(
            st.lists(st.sampled_from(sorted(self.columns)), min_size=1, max_size=3)
        )
        directions = [data.draw(st.booleans()) for _ in kinds]
        row = st.tuples(*[st.none() | self.columns[kind] for kind in kinds])
        left, right = data.draw(row), data.draw(row)
        prefix = encode_key([data.draw(st.text(max_size=3))])
        rest = encode_key([data.draw(scalars)])

        def as_bytes(values):
            key = prefix + encode_key(values) + rest
            return ordering_bytes(key, len(prefix), directions)

        def as_values(values):
            # NULL first on ASC, last on DESC; a DESC column compares reversed.
            return [(value is not None, value) for value in values]

        def before(a, b):
            for x, y, ascending in zip(as_values(a), as_values(b), directions):
                if x != y:
                    return (x < y) == ascending
            return False

        assert (as_bytes(left) < as_bytes(right)) == before(left, right)
        assert (as_bytes(left) == as_bytes(right)) == (as_values(left) == as_values(right))


class TestPrefixRanges:
    def test_prefix_range_contains_extensions_only(self):
        start, end = prefix_range(["alice"])
        inside = encode_key(["alice", 5])
        inside2 = encode_key(["alice", "zzz"])
        outside = encode_key(["alicf"])
        outside2 = encode_key(["alicd", 10**9])
        assert start <= inside < end
        assert start <= inside2 < end
        assert not (start <= outside < end)
        assert not (start <= outside2 < end)

    @given(st.text(max_size=10), st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200)
    def test_prefix_range_property(self, prefix_value, extension):
        start, end = prefix_range([prefix_value])
        extended = encode_key([prefix_value, extension])
        assert start <= extended < end

    def test_prefix_upper_bound(self):
        prefix = encode_key(["bob"])
        assert prefix_upper_bound(prefix) > prefix

    def test_successor_is_minimal_increase(self):
        key = encode_key(["bob", 5])
        assert successor(key) > key
        # Nothing fits between a key and its successor for byte strings that
        # do not extend the key.
        assert successor(key)[:-1] == key
