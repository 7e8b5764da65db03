"""CTR mode: turn a block cipher into a seekable stream cipher.

Counter block layout follows NIST SP 800-38A as used by AES-CTR in practice:
a 12-byte nonce followed by a 4-byte big-endian block counter.  Because CTR
keystreams are position-addressable, encryption and decryption are the same
operation and random-access reads (SST blocks) can decrypt without touching
the rest of the file.  A unit keyed on its own (SST format v3, and every
AEAD unit) runs its stream from position 0 under :func:`derive_nonce`.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.errors import EncryptionError

NONCE_SIZE = 12
_MAX_COUNTER = 2 ** 32


def derive_nonce(base: bytes, offset: int) -> bytes:
    """Fold a unit's payload offset into a per-file base nonce.

    The low 8 bytes of the base nonce are XORed with the little-endian
    offset, so every distinct offset within one file yields a distinct
    nonce under the same (fresh, random) per-file base.
    """
    if len(base) < 8:
        raise EncryptionError("a unit's base nonce must be at least 8 bytes")
    if offset < 0:
        raise EncryptionError("a unit's offset must be non-negative")
    head = base[:-8]
    tail = int.from_bytes(base[-8:], "little") ^ (offset & (2 ** 64 - 1))
    return head + tail.to_bytes(8, "little")


class CtrCipher:
    """Seekable CTR stream over any 16-byte block cipher (AES here)."""

    def __init__(self, block_cipher: AES, nonce: bytes):
        if len(nonce) != NONCE_SIZE:
            raise EncryptionError(f"CTR nonce must be {NONCE_SIZE} bytes")
        self._cipher = block_cipher
        self._nonce = nonce

    def _keystream_block(self, block_index: int) -> bytes:
        if block_index >= _MAX_COUNTER:
            raise EncryptionError("CTR counter overflow")
        counter_block = self._nonce + block_index.to_bytes(4, "big")
        return self._cipher.encrypt_block(counter_block)

    def keystream(self, offset: int, length: int) -> bytes:
        """Keystream bytes covering [offset, offset+length)."""
        if length <= 0:
            return b""
        first_block = offset // BLOCK_SIZE
        last_block = (offset + length - 1) // BLOCK_SIZE
        parts = [self._keystream_block(i) for i in range(first_block, last_block + 1)]
        stream = b"".join(parts)
        start = offset - first_block * BLOCK_SIZE
        return stream[start:start + length]

    def xor_at(self, data: bytes, offset: int) -> bytes:
        """Encrypt/decrypt ``data`` located at byte ``offset`` in the stream."""
        ks = self.keystream(offset, len(data))
        return (int.from_bytes(data, "little") ^ int.from_bytes(ks, "little")) \
            .to_bytes(len(data), "little")

    def xor_unit(self, data: bytes, offset: int) -> bytes:
        """``data`` XOR the stream of the unit at ``offset``: this cipher's
        block cipher under the unit's derived nonce, from position 0."""
        unit = CtrCipher(self._cipher, derive_nonce(self._nonce, offset))
        return unit.xor_at(data, 0)
