"""Bloom filter for SST files (LevelDB-style double hashing)."""

from __future__ import annotations

import zlib

from repro.util.coding import decode_varint64, encode_varint64


#: Filter bits per key in every SST (LevelDB's default: ~1% false positives).
BITS_PER_KEY = 10
# A key's base hash is its CRC-32 seeded with _HASH_SEED: well mixed, and at
# C speed.
_HASH_SEED = 0xBC9F1D34
_ZERO_HASH = 0x9E3779B9  # stands in for a CRC of 0, which would never step


class BloomFilter:
    """Fixed-size bloom filter built once over a file's user keys."""

    def __init__(self, bits: bytes, num_probes: int):
        self._bits = bits
        self._nbits = len(bits) * 8
        self.num_probes = num_probes

    @classmethod
    def build(
        cls, keys: list[bytes], bits_per_key: int = BITS_PER_KEY
    ) -> "BloomFilter":
        # k = bits_per_key * ln(2), clamped like LevelDB.
        num_probes = max(1, min(30, int(bits_per_key * 0.69)))
        nbits = max(64, len(keys) * bits_per_key)
        nbytes = (nbits + 7) // 8
        nbits = nbytes * 8
        # One pass per SST over every key it holds: a plain store into one
        # flag byte per filter bit (no read-modify-write, no shifts), free
        # of global lookups and per-key object construction.
        flags = bytearray(nbits)
        crc32 = zlib.crc32
        probes = range(num_probes)
        for key in keys:
            h = crc32(key, _HASH_SEED) or _ZERO_HASH
            delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
            for _ in probes:
                flags[h % nbits] = 1
                h = (h + delta) & 0xFFFFFFFF
        # Pack once: bit b of every filter byte is the stride flags[b::8].
        packed = 0
        for bit in range(8):
            packed |= int.from_bytes(flags[bit::8], "little") << bit
        return cls(packed.to_bytes(nbytes, "little"), num_probes)

    def may_contain(self, key: bytes) -> bool:
        # Every point read asks: locals only.
        nbits = self._nbits
        if nbits == 0:
            return True
        bits = self._bits
        h = zlib.crc32(key, _HASH_SEED) or _ZERO_HASH
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(self.num_probes):
            position = h % nbits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            h = (h + delta) & 0xFFFFFFFF
        return True

    def encode(self) -> bytes:
        return encode_varint64(self.num_probes) + self._bits

    @classmethod
    def decode(cls, buf: bytes) -> "BloomFilter":
        num_probes, offset = decode_varint64(buf, 0)
        return cls(buf[offset:], num_probes)

    def __len__(self) -> int:
        return len(self._bits)
