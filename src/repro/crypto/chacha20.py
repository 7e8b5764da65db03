"""ChaCha20 stream cipher (RFC 8439), implemented from scratch.

Included because the paper names ChaCha alongside AES as a candidate
algorithm; the reproduction lets any file be encrypted with it.  Like CTR
mode the keystream is seekable at 64-byte block granularity.
"""

from __future__ import annotations

import struct

from repro.crypto.ctr import derive_nonce
from repro.errors import EncryptionError

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK = 0xFFFFFFFF


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & _MASK


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block."""
    if len(key) != KEY_SIZE:
        raise EncryptionError(f"ChaCha20 key must be {KEY_SIZE} bytes")
    if len(nonce) != NONCE_SIZE:
        raise EncryptionError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes")
    state = list(_CONSTANTS)
    state.extend(struct.unpack("<8I", key))
    state.append(counter & _MASK)
    state.extend(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    output = [(working[i] + state[i]) & _MASK for i in range(16)]
    return struct.pack("<16I", *output)


class ChaCha20Cipher:
    """Seekable ChaCha20 keystream (counter starts at 0 for file offset 0)."""

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != KEY_SIZE:
            raise EncryptionError(f"ChaCha20 key must be {KEY_SIZE} bytes")
        if len(nonce) != NONCE_SIZE:
            raise EncryptionError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes")
        self._key = key
        self._nonce = nonce

    def keystream(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        first_block = offset // BLOCK_SIZE
        last_block = (offset + length - 1) // BLOCK_SIZE
        parts = [
            chacha20_block(self._key, i, self._nonce)
            for i in range(first_block, last_block + 1)
        ]
        stream = b"".join(parts)
        start = offset - first_block * BLOCK_SIZE
        return stream[start:start + length]

    def xor_at(self, data: bytes, offset: int) -> bytes:
        ks = self.keystream(offset, len(data))
        return (int.from_bytes(data, "little") ^ int.from_bytes(ks, "little")) \
            .to_bytes(len(data), "little")

    def xor_unit(self, data: bytes, offset: int) -> bytes:
        """``data`` XOR the stream of the unit at ``offset``: this key under
        the unit's derived nonce, from block 0."""
        unit = ChaCha20Cipher(self._key, derive_nonce(self._nonce, offset))
        return unit.xor_at(data, 0)
