"""Unit and property tests for varint/fixed integer coding."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
from repro.util import coding


def test_fixed32_roundtrip():
    buf = coding.encode_fixed32(0xDEADBEEF)
    assert len(buf) == 4
    value, offset = coding.decode_fixed32(buf)
    assert value == 0xDEADBEEF
    assert offset == 4


def test_fixed64_roundtrip():
    buf = coding.encode_fixed64(0x0123456789ABCDEF)
    value, offset = coding.decode_fixed64(buf)
    assert value == 0x0123456789ABCDEF
    assert offset == 8


def test_fixed32_little_endian_layout():
    assert coding.encode_fixed32(1) == b"\x01\x00\x00\x00"


def test_fixed_truncated_raises():
    with pytest.raises(CorruptionError):
        coding.decode_fixed32(b"\x01\x02")
    with pytest.raises(CorruptionError):
        coding.decode_fixed64(b"\x01\x02\x03\x04")


def test_varint_small_values_single_byte():
    for value in (0, 1, 127):
        assert coding.encode_varint64(value) == bytes([value])


def test_varint_known_encoding():
    assert coding.encode_varint64(300) == b"\xac\x02"


def test_varint_negative_rejected():
    with pytest.raises(ValueError):
        coding.encode_varint64(-1)


def test_varint_truncated_raises():
    with pytest.raises(CorruptionError):
        coding.decode_varint64(b"\x80")


@pytest.mark.parametrize("value, encoded", [
    (16383, "ff7f"),          # the last two-byte varint
    (16384, "808001"),        # the first three-byte one
    (2 ** 21 - 1, "ffff7f"),  # the last three-byte one
    (2 ** 21, "80808001"),    # the first four-byte one: back in the loop
])
def test_varint_length_boundaries(value, encoded):
    buf = bytes.fromhex(encoded)
    assert coding.encode_varint64(value) == buf
    assert coding.decode_varint64(buf) == (value, len(buf))
    assert coding.decode_varint64(b"\x00" + buf + b"\x01", 1) == (value, len(buf) + 1)


@pytest.mark.parametrize("truncated", ["8080", "ffff", "808080"])
def test_a_truncated_multi_byte_varint_raises(truncated):
    with pytest.raises(CorruptionError, match="truncated varint"):
        coding.decode_varint64(bytes.fromhex(truncated))


def test_varint_too_long_raises():
    with pytest.raises(CorruptionError):
        coding.decode_varint64(b"\xff" * 11)


def test_varint32_overflow_raises():
    buf = coding.encode_varint64(2 ** 40)
    with pytest.raises(CorruptionError):
        coding.decode_varint32(buf)


def test_decode_at_offset():
    buf = b"junk" + coding.encode_varint64(12345)
    value, offset = coding.decode_varint64(buf, 4)
    assert value == 12345
    assert offset == len(buf)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_varint64_roundtrip(value):
    buf = coding.encode_varint64(value)
    decoded, offset = coding.decode_varint64(buf)
    assert decoded == value
    assert offset == len(buf)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=20))
def test_varint_stream_roundtrip(values):
    buf = b"".join(coding.encode_varint64(v) for v in values)
    offset = 0
    decoded = []
    for _ in values:
        value, offset = coding.decode_varint64(buf, offset)
        decoded.append(value)
    assert decoded == values
    assert offset == len(buf)


@given(st.binary(max_size=200))
def test_length_prefixed_roundtrip(data):
    buf = coding.encode_length_prefixed(data)
    decoded, offset = coding.decode_length_prefixed(buf)
    assert decoded == data
    assert offset == len(buf)


def test_length_prefixed_truncated():
    buf = coding.encode_length_prefixed(b"hello")[:-1]
    with pytest.raises(CorruptionError):
        coding.decode_length_prefixed(buf)
