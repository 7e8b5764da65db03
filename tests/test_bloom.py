"""Tests for the bloom filter."""

import random
import zlib

from hypothesis import given, settings, strategies as st

from repro.lsm.bloom import _HASH_SEED, _ZERO_HASH, BITS_PER_KEY, BloomFilter
from repro.util.coding import encode_varint64


def test_no_false_negatives():
    keys = [b"key-%d" % i for i in range(1000)]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    assert all(bloom.may_contain(k) for k in keys)


def test_false_positive_rate_reasonable():
    keys = [b"key-%d" % i for i in range(2000)]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    rng = random.Random(42)
    probes = [b"other-%d" % rng.randrange(10 ** 9) for _ in range(2000)]
    false_positives = sum(bloom.may_contain(p) for p in probes)
    # 10 bits/key should give ~1% FP; allow a generous margin.
    assert false_positives / len(probes) < 0.05


def test_encode_decode_roundtrip():
    keys = [b"a", b"b", b"c"]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    decoded = BloomFilter.decode(bloom.encode())
    assert decoded.num_probes == bloom.num_probes
    assert all(decoded.may_contain(k) for k in keys)


def test_empty_filter():
    bloom = BloomFilter.build([], bits_per_key=10)
    # An empty filter has all bits clear: everything is "definitely absent".
    assert not bloom.may_contain(b"anything")


@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=100))
def test_membership_property(keys):
    bloom = BloomFilter.build(keys, bits_per_key=12)
    assert all(bloom.may_contain(k) for k in keys)


def reference_filter(keys: list[bytes], bits_per_key: int = BITS_PER_KEY) -> bytes:
    """The encoded filter, one bit at a time: what ``build`` must equal."""
    num_probes = max(1, min(30, int(bits_per_key * 0.69)))
    nbytes = (max(64, len(keys) * bits_per_key) + 7) // 8
    nbits = nbytes * 8
    bits = bytearray(nbytes)
    for key in keys:
        h = zlib.crc32(key, _HASH_SEED) or _ZERO_HASH
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(num_probes):
            position = h % nbits
            bits[position >> 3] |= 1 << (position & 7)
            h = (h + delta) & 0xFFFFFFFF
    return encode_varint64(num_probes) + bytes(bits)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.one_of(
        st.lists(st.binary(max_size=24), max_size=12),  # the nbits = 64 floor
        st.lists(st.binary(max_size=24), min_size=1, max_size=400),
        st.integers(1, 5000).map(
            lambda count: [b"key-%06d" % (i * 7919 % 100_003) for i in range(count)]
        ),
    ),
    repeat=st.integers(1, 3),
    bits_per_key=st.sampled_from([BITS_PER_KEY, 1, 7, 16]),
)
def test_build_equals_the_bit_at_a_time_reference(keys, repeat, bits_per_key):
    keys = keys * repeat  # duplicates count towards the size, set nothing new
    bloom = BloomFilter.build(keys, bits_per_key)
    assert bloom.encode() == reference_filter(keys, bits_per_key)
    assert all(bloom.may_contain(key) for key in keys)


def test_build_reference_edges():
    for keys in ([], [b""], [b"one"], [b"same"] * 7, [b"k%d" % i for i in range(6)],
                 [b"k%d" % i for i in range(7)]):
        assert BloomFilter.build(keys).encode() == reference_filter(keys)
    assert len(BloomFilter.build([b"k%d" % i for i in range(6)])) == 8  # the floor
