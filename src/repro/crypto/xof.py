"""SHAKE-256 keystream cipher: the fast bulk-encryption path.

Keystream segment ``i`` is ``SHAKE256(key || nonce || be64(i))`` expanded to
the segment size.  Each segment is a single C-speed hashlib call, so the
cipher exhibits the cost profile the paper analyses for OpenSSL AES: a fixed
per-context initialization cost plus near-memcpy-speed per-byte work.  The
construction is a standard XOF-as-stream-cipher and is seekable at segment
granularity, which WAL replay and format v1 SSTs rely on.

A unit keyed on its own (SST format v3) gets ``SHAKE256(key || nonce ||
UNIT_DOMAIN || be64(offset))``: one squeeze of exactly the unit's length,
where a segment-addressed read at a random offset squeezed from the start
of every segment it touched.  The longer suffix keeps the two streams of
one (key, nonce) apart.
"""

from __future__ import annotations

import hashlib

from repro.errors import EncryptionError

KEY_SIZE = 32
NONCE_SIZE = 16
SEGMENT_SIZE = 4096
#: Absorbed ahead of a unit's offset, which a segment index never is.
UNIT_DOMAIN = b"shield-unit"


class ShakeCtrCipher:
    """Seekable stream cipher whose keystream comes from SHAKE-256."""

    def __init__(self, key: bytes, nonce: bytes):
        if len(key) != KEY_SIZE:
            raise EncryptionError(f"shake-ctr key must be {KEY_SIZE} bytes")
        if len(nonce) != NONCE_SIZE:
            raise EncryptionError(f"shake-ctr nonce must be {NONCE_SIZE} bytes")
        # Pre-absorbing key+nonce is the context-initialization step.
        self._base = hashlib.shake_256()
        self._base.update(key + nonce)

    @classmethod
    def absorbed(cls, base) -> "ShakeCtrCipher":
        """The cipher over ``base``, a SHAKE-256 state that has absorbed
        key || nonce: how a key schedule shared across nonces builds one
        without absorbing the key again.  ``base`` is kept, not copied."""
        cipher = cls.__new__(cls)
        cipher._base = base
        return cipher

    def _segment(self, index: int, length: int = SEGMENT_SIZE) -> bytes:
        xof = self._base.copy()
        xof.update(index.to_bytes(8, "big"))
        return xof.digest(length)

    def keystream(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        first, start = divmod(offset, SEGMENT_SIZE)
        last, tail = divmod(offset + length - 1, SEGMENT_SIZE)
        if first == last:
            return self._segment(first, tail + 1)[start:]
        # Ask the XOF for exactly the bytes the last segment contributes:
        # digest(n) is a prefix of digest(m), so the stream is unchanged.
        # The first segment is cut by a view: the join is the one copy.
        parts = [memoryview(self._segment(first))[start:]]
        parts += [self._segment(i) for i in range(first + 1, last)]
        parts.append(self._segment(last, tail + 1))
        return b"".join(parts)

    def xor_at(self, data: bytes, offset: int) -> bytes:
        return _xor(data, self.keystream(offset, len(data)))

    def xor_unit(self, data: bytes, offset: int) -> bytes:
        """``data`` XOR the keystream of the unit at ``offset``: one
        ``digest(len(data))`` of a copy of the absorbed state."""
        xof = self._base.copy()
        xof.update(UNIT_DOMAIN + offset.to_bytes(8, "big"))
        return _xor(data, xof.digest(len(data)))


def _xor(data: bytes, ks: bytes) -> bytes:
    return (int.from_bytes(data, "little") ^ int.from_bytes(ks, "little")) \
        .to_bytes(len(data), "little")
