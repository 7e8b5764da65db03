"""Tests for the SHAKE-256 keystream cipher."""

import hashlib

import pytest
from hypothesis import example, given, strategies as st

from repro.crypto.xof import SEGMENT_SIZE, UNIT_DOMAIN, ShakeCtrCipher
from repro.errors import EncryptionError


def test_keystream_matches_definition():
    key, nonce = bytes(32), bytes(16)
    cipher = ShakeCtrCipher(key, nonce)
    expected = hashlib.shake_256(key + nonce + (0).to_bytes(8, "big")).digest(64)
    assert cipher.keystream(0, 64) == expected


def test_segment_boundary_continuity():
    cipher = ShakeCtrCipher(bytes(32), bytes(16))
    around = cipher.keystream(SEGMENT_SIZE - 10, 20)
    left = cipher.keystream(SEGMENT_SIZE - 10, 10)
    right = cipher.keystream(SEGMENT_SIZE, 10)
    assert around == left + right


def test_random_access_consistency():
    cipher = ShakeCtrCipher(bytes(32), bytes(16))
    full = cipher.keystream(0, 3 * SEGMENT_SIZE)
    assert cipher.keystream(5000, 2000) == full[5000:7000]


def test_key_and_nonce_separation():
    data = b"x" * 64
    base = ShakeCtrCipher(bytes(32), bytes(16)).xor_at(data, 0)
    other_key = ShakeCtrCipher(b"\x01" + bytes(31), bytes(16)).xor_at(data, 0)
    other_nonce = ShakeCtrCipher(bytes(32), b"\x01" + bytes(15)).xor_at(data, 0)
    assert base != other_key
    assert base != other_nonce


def test_bad_sizes():
    with pytest.raises(EncryptionError):
        ShakeCtrCipher(bytes(16), bytes(16))
    with pytest.raises(EncryptionError):
        ShakeCtrCipher(bytes(32), bytes(12))


def test_empty():
    cipher = ShakeCtrCipher(bytes(32), bytes(16))
    assert cipher.keystream(0, 0) == b""
    assert cipher.xor_at(b"", 123) == b""


@given(
    st.binary(max_size=2 * SEGMENT_SIZE),
    st.integers(min_value=0, max_value=3 * SEGMENT_SIZE),
)
def test_involution(data, offset):
    cipher = ShakeCtrCipher(bytes(32), bytes(16))
    assert cipher.xor_at(cipher.xor_at(data, offset), offset) == data


@given(
    st.integers(min_value=0, max_value=4 * SEGMENT_SIZE - 1),
    st.integers(min_value=0, max_value=4 * SEGMENT_SIZE),
)
@example(SEGMENT_SIZE + 3900, 4150)  # a ~4 KiB SST block straddling a boundary
def test_keystream_is_the_slice_of_full_segments_and_asks_for_no_more(offset, length):
    length = min(length, 4 * SEGMENT_SIZE - offset)
    cipher = ShakeCtrCipher(bytes(range(32)), bytes(range(16)))
    reference = b"".join(cipher._segment(i) for i in range(4))
    asked = []  # (segment index, bytes requested from the XOF)
    segment = cipher._segment

    def counting_segment(index, size=SEGMENT_SIZE):
        asked.append((index, size))
        return segment(index, size)

    cipher._segment = counting_segment
    assert cipher.keystream(offset, length) == reference[offset:offset + length]
    # An XOF can only be read from a segment's start, so the head of the first
    # segment is unavoidable; nothing is produced past the range's end.
    assert sum(size for __, size in asked) <= offset % SEGMENT_SIZE + length
    for index, size in asked:
        assert index * SEGMENT_SIZE + size <= offset + length



def test_a_unit_keystream_is_one_squeeze_after_the_unit_domain():
    key, nonce, offset = bytes(range(32)), bytes(range(16)), 12_345
    cipher = ShakeCtrCipher(key, nonce)
    expected = hashlib.shake_256(
        key + nonce + UNIT_DOMAIN + offset.to_bytes(8, "big")
    ).digest(4185)
    assert cipher.xor_unit(bytes(4185), offset) == expected
    # Apart from the file-offset stream, and from every other unit's.
    assert expected[:64] != cipher.keystream(offset * SEGMENT_SIZE, 64)
    assert cipher.xor_unit(bytes(64), offset + 1) != expected[:64]
