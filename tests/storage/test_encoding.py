"""Round-trip tests for column stream encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    IntEncoding,
    decode_int64,
    encode_int64,
    unzigzag,
    zigzag,
)
from repro.storage.encoding import (
    _varint_decode,
    _varint_encode,
    decode_varint_streams,
)


class TestZigzag:
    def test_small_values_stay_small(self):
        v = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        np.testing.assert_array_equal(zigzag(v), [0, 1, 2, 3, 4])

    def test_round_trip_extremes(self):
        v = np.array(
            [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64
        )
        np.testing.assert_array_equal(unzigzag(zigzag(v)), v)


class TestPlain:
    def test_round_trip(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        data = encode_int64(v, IntEncoding.PLAIN)
        np.testing.assert_array_equal(
            decode_int64(data, 3, IntEncoding.PLAIN), v
        )

    def test_length_validation(self):
        with pytest.raises(ValueError):
            decode_int64(b"\x00" * 8, 2, IntEncoding.PLAIN)


class TestVarint:
    def test_round_trip_basic(self):
        v = np.array([0, 1, 127, 128, 300, 10**12], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    def test_negative_values(self):
        v = np.array([-1, -127, -128, -(10**9)], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, v.size, IntEncoding.VARINT), v
        )

    def test_empty(self):
        data = encode_int64(np.array([], dtype=np.int64), IntEncoding.VARINT)
        assert data == b""
        out = decode_int64(data, 0, IntEncoding.VARINT)
        assert out.size == 0

    def test_smaller_than_plain_for_small_ids(self):
        v = np.arange(1000, dtype=np.int64)
        varint = encode_int64(v, IntEncoding.VARINT)
        plain = encode_int64(v, IntEncoding.PLAIN)
        assert len(varint) < len(plain) / 3

    def test_count_mismatch_detected(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        with pytest.raises(ValueError):
            decode_int64(data, 2, IntEncoding.VARINT)

    def test_int64_extremes(self):
        v = np.array([2**63 - 1, -(2**63), 0], dtype=np.int64)
        data = encode_int64(v, IntEncoding.VARINT)
        np.testing.assert_array_equal(
            decode_int64(data, 3, IntEncoding.VARINT), v
        )


@given(
    st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=100
    )
)
def test_property_varint_round_trip(values):
    v = np.array(values, dtype=np.int64)
    data = encode_int64(v, IntEncoding.VARINT)
    np.testing.assert_array_equal(
        decode_int64(data, v.size, IntEncoding.VARINT), v
    )


@given(st.lists(st.integers(min_value=0, max_value=2**20), max_size=50))
def test_property_plain_round_trip(values):
    v = np.array(values, dtype=np.int64)
    data = encode_int64(v, IntEncoding.PLAIN)
    np.testing.assert_array_equal(
        decode_int64(data, v.size, IntEncoding.PLAIN), v
    )


def _leb128_reference(data: bytes) -> list[int]:
    """Byte-at-a-time LEB128 + zigzag decode (the spec, not the kernel)."""
    out, value, shift = [], 0, 0
    for byte in data:
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            out.append((value >> 1) ^ -(value & 1))
            value, shift = 0, 0
    return out


class TestMalformedVarint:
    GOOD = _varint_encode(np.array([1, 2, 300], dtype=np.int64))

    def test_dangling_continuation_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"^varint stream ends inside a value \(continuation bit set\)$",
        ):
            _varint_decode(self.GOOD + b"\x80\x81", 3)

    def test_value_longer_than_ten_bytes_rejected(self):
        with pytest.raises(
            ValueError, match="^varint value longer than 10 bytes$"
        ):
            _varint_decode(b"\xff" * 11 + b"\x01", 1)

    def test_ten_byte_values_accepted(self):
        v = np.array([2**63 - 1, -(2**63)], dtype=np.int64)
        data = _varint_encode(v)
        assert len(data) == 20
        np.testing.assert_array_equal(_varint_decode(data, 2), v)

    def test_count_mismatch_message(self):
        with pytest.raises(
            ValueError, match="^varint stream holds 3 values, expected 4$"
        ):
            decode_int64(self.GOOD, 4, IntEncoding.VARINT)

    @pytest.mark.parametrize(
        "bad, count, message",
        [
            (GOOD + b"\x80", 3, r"varint stream ends inside a value"),
            (b"\xff" * 11 + b"\x01", 1, r"varint value longer than 10 bytes"),
            (GOOD, 2, r"varint stream holds 3 values, expected 2"),
        ],
    )
    def test_bad_stream_in_the_middle_of_a_batch(self, bad, count, message):
        good = _varint_encode(np.arange(40, dtype=np.int64) * 1000)
        payloads = [good, b"", bad, good]
        counts = [40, 0, count, 40]
        with pytest.raises(ValueError, match=rf"^third: {message}"):
            decode_varint_streams(
                payloads, counts, names=["first", "second", "third", "fourth"]
            )
        with pytest.raises(ValueError, match=rf"^{message}"):
            decode_varint_streams(payloads, counts)

    def test_first_bad_stream_is_named(self):
        payloads = [self.GOOD, self.GOOD + b"\x80", self.GOOD]
        with pytest.raises(ValueError, match="^s0: varint stream holds 3"):
            decode_varint_streams(payloads, [2, 3, 9], names=["s0", "s1", "s2"])

    def test_counts_must_match_payloads(self):
        with pytest.raises(ValueError):
            decode_varint_streams([b""], [])
        assert decode_varint_streams([], []) == []


int64s = st.integers(-(2**63), 2**63 - 1)


class TestBatchedVarint:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(int64s, max_size=30), max_size=8))
    def test_batched_matches_per_stream_decode(self, streams):
        arrays = [np.array(s, dtype=np.int64) for s in streams]
        payloads = [_varint_encode(a) for a in arrays]
        counts = [a.size for a in arrays]
        batched = decode_varint_streams(payloads, counts)
        assert len(batched) == len(arrays)
        for got, payload, count, want in zip(batched, payloads, counts, arrays):
            single = _varint_decode(payload, count)
            assert got.dtype == single.dtype == np.int64
            np.testing.assert_array_equal(got, single)
            np.testing.assert_array_equal(got, want)
            assert got.tolist() == _leb128_reference(payload)
