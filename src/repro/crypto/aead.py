"""Authenticated encryption (AEAD): the integrity rung above SHIELD's CTR.

Three constructions, each split in two halves:

- a *key schedule* -- everything that depends on the key alone, built once
  -- whose ``seal(nonce, plaintext, aad) -> ciphertext||tag`` and
  ``open(nonce, sealed, aad) -> plaintext`` do only the per-nonce *unit
  step*;
- a one-shot class ``Scheme(key, nonce)`` with ``seal(plaintext, aad)`` and
  ``open(sealed, aad)``: a fresh schedule bound to one nonce.

The schemes:

- :class:`ChaCha20Poly1305` -- RFC 8439, composed from the from-scratch
  ChaCha20 and Poly1305 primitives; the reference AEAD, vector-pinned.
- :class:`AesGcm` -- NIST SP 800-38D over the from-scratch AES.  GHASH uses
  the straightforward bitwise GF(2^128) multiply: slow in Python, selectable
  everywhere, correctness pinned by the NIST vectors.
- :class:`ShakeEtm` -- encrypt-then-MAC over the SHAKE-CTR keystream with a
  keyed BLAKE2b tag.  Both halves are C-speed hashlib calls, so this is the
  bulk AEAD the benchmarks and the AEAD-enabled test suite default to,
  exactly as shake-ctr is the bulk stream cipher.

Unlike the stream ciphers, AEAD units are not seekable: each sealed unit
(an SST block, a WAL flush) carries its own 16-byte tag and must be opened
whole.  Uniqueness of the (key, nonce) pair per unit is the caller's job --
:func:`derive_nonce` folds a unit's file offset into the per-file base
nonce, so distinct offsets within a file can never collide.  A schedule
holds only state its units read or copy, so threads share one unlocked.
"""

from __future__ import annotations

import hashlib

from repro.crypto.aes import AES
from repro.crypto.chacha20 import ChaCha20Cipher, chacha20_block
from repro.crypto.ctr import derive_nonce  # noqa: F401 - re-exported: every unit's nonce
from repro.crypto.poly1305 import constant_time_equal, poly1305_mac
from repro.crypto.xof import ShakeCtrCipher
from repro.errors import AuthenticationError, EncryptionError

TAG_SIZE = 16

#: CPython's hashlib lets go of the GIL inside any ``update()`` of 2,048
#: bytes or more (``HASHLIB_GIL_MINSIZE``), and an object that has let go
#: once does so on every later update.  A MAC fed in slices below that
#: never lets go: on a foreground read, each release handed the interpreter
#: to background compaction, turning microseconds of hashing into a wait for
#: compaction's next release (DESIGN.md, fidelity notes).
MAC_SLICE = 2047


def _le64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def _pad16(data: bytes) -> bytes:
    remainder = len(data) % 16
    return b"" if remainder == 0 else b"\x00" * (16 - remainder)


def _split_tag(sealed: bytes) -> tuple[bytes, bytes]:
    if len(sealed) < TAG_SIZE:
        raise AuthenticationError("sealed unit shorter than its tag")
    return sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]


class AeadUnit:
    """One sealed unit's context: a key schedule bound to one nonce."""

    def __init__(self, schedule, nonce: bytes):
        self._schedule = schedule
        self._nonce = nonce

    def seal(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        return self._schedule.seal(self._nonce, plaintext, aad)

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        return self._schedule.open(self._nonce, sealed, aad)


class _OneShot(AeadUnit):
    """``Scheme(key, nonce)``: a fresh ``schedule(key)`` bound to ``nonce``."""

    schedule: type

    def __init__(self, key: bytes, nonce: bytes):
        schedule = self.schedule
        if len(nonce) != schedule.nonce_size:
            raise EncryptionError(
                f"{schedule.name} nonce must be {schedule.nonce_size} bytes"
            )
        super().__init__(schedule(key), nonce)


class ChaCha20Poly1305Schedule:
    """RFC 8439 AEAD_CHACHA20_POLY1305 (key 32 bytes, nonce 12 bytes).

    ChaCha20 has no key expansion: the schedule is the checked key, and each
    unit derives its Poly1305 key from block 0 under its own nonce.
    """

    name = "chacha20-poly1305"
    key_size = 32
    nonce_size = 12

    def __init__(self, key: bytes):
        if len(key) != self.key_size:
            raise EncryptionError("chacha20-poly1305 key must be 32 bytes")
        self._key = key

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac_data = (
            aad + _pad16(aad)
            + ciphertext + _pad16(ciphertext)
            + _le64(len(aad)) + _le64(len(ciphertext))
        )
        return poly1305_mac(chacha20_block(self._key, 0, nonce)[:32], mac_data)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        # Encryption starts at block counter 1 (block 0 keys Poly1305),
        # i.e. keystream offset 64 for the seekable cipher.
        ciphertext = ChaCha20Cipher(self._key, nonce).xor_at(plaintext, 64)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        ciphertext, tag = _split_tag(sealed)
        if not constant_time_equal(self._tag(nonce, ciphertext, aad), tag):
            raise AuthenticationError("chacha20-poly1305 tag mismatch")
        return ChaCha20Cipher(self._key, nonce).xor_at(ciphertext, 64)


class ChaCha20Poly1305(_OneShot):
    """One-shot RFC 8439 AEAD for one (key, nonce)."""

    schedule = ChaCha20Poly1305Schedule


_GCM_R = 0xE1 << 120  # x^128 + x^7 + x^2 + x + 1, bit-reflected


def _ghash_mul(x: int, y: int) -> int:
    """Multiply two GF(2^128) elements in GCM's bit-reflected convention."""
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _GCM_R
        else:
            v >>= 1
    return z


class AesGcmSchedule:
    """NIST SP 800-38D AES-GCM (key 16/24/32 bytes, 96-bit IV).

    The schedule is the AES key expansion and the GHASH key H = E(K, 0^128);
    a unit's counter blocks start from its own IV.
    """

    name = "aes-gcm"
    key_size = 32
    nonce_size = 12

    def __init__(self, key: bytes):
        self._aes = AES(key)  # validates the key size
        self._h = int.from_bytes(self._aes.encrypt_block(b"\x00" * 16), "big")

    def _ctr(self, nonce: bytes, data: bytes, initial_counter: int) -> bytes:
        out = bytearray()
        counter = initial_counter
        for start in range(0, len(data), 16):
            block = data[start:start + 16]
            keystream = self._aes.encrypt_block(nonce + counter.to_bytes(4, "big"))
            out.extend(b ^ k for b, k in zip(block, keystream))
            counter += 1
        return bytes(out)

    def _ghash(self, aad: bytes, ciphertext: bytes) -> bytes:
        data = (
            aad + _pad16(aad)
            + ciphertext + _pad16(ciphertext)
            + (8 * len(aad)).to_bytes(8, "big")
            + (8 * len(ciphertext)).to_bytes(8, "big")
        )
        y = 0
        for start in range(0, len(data), 16):
            y = _ghash_mul(
                y ^ int.from_bytes(data[start:start + 16], "big"), self._h
            )
        return y.to_bytes(16, "big")

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        # Tag = E(K, J0) XOR GHASH; J0 = IV || 1 for 96-bit IVs.
        pre = self._aes.encrypt_block(nonce + (1).to_bytes(4, "big"))
        ghash = self._ghash(aad, ciphertext)
        return bytes(p ^ g for p, g in zip(pre, ghash))

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._ctr(nonce, plaintext, 2)  # counters 2.. encrypt the data
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        ciphertext, tag = _split_tag(sealed)
        if not constant_time_equal(self._tag(nonce, ciphertext, aad), tag):
            raise AuthenticationError("aes-gcm tag mismatch")
        return self._ctr(nonce, ciphertext, 2)


class AesGcm(_OneShot):
    """One-shot AES-GCM for one (key, IV)."""

    schedule = AesGcmSchedule


class ShakeEtmSchedule:
    """Encrypt-then-MAC: SHAKE-CTR keystream + keyed BLAKE2b tag.

    The encryption and MAC subkeys are domain-separated derivations of the
    key.  The schedule derives both, absorbs the encryption key into a
    SHAKE-256 state and keys a BLAKE2b state; a unit copies the two states
    and absorbs its nonce into each, giving AEAD at the same C-speed cost
    profile as the shake-ctr stream cipher.  The tag covers nonce, AAD, and
    ciphertext with unambiguous length framing.
    """

    name = "shake-etm"
    key_size = 32
    nonce_size = 16

    def __init__(self, key: bytes):
        if len(key) != self.key_size:
            raise EncryptionError("shake-etm key must be 32 bytes")
        enc_key = hashlib.blake2b(
            b"", key=key, person=b"shield-etm-enc", digest_size=32
        ).digest()
        mac_key = hashlib.blake2b(
            b"", key=key, person=b"shield-etm-mac", digest_size=32
        ).digest()
        self._xof = hashlib.shake_256(enc_key)
        self._mac = hashlib.blake2b(key=mac_key, digest_size=TAG_SIZE)

    def _stream(self, nonce: bytes) -> ShakeCtrCipher:
        state = self._xof.copy()
        state.update(nonce)  # the state of SHAKE-256(enc_key || nonce)
        return ShakeCtrCipher.absorbed(state)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(nonce)
        for field in (aad, ciphertext):
            mac.update(_le64(len(field)))
            view = memoryview(field)
            for start in range(0, len(view), MAC_SLICE):
                mac.update(view[start:start + MAC_SLICE])
        return mac.digest()

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ciphertext = self._stream(nonce).xor_at(plaintext, 0)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        ciphertext, tag = _split_tag(sealed)
        if not constant_time_equal(self._tag(nonce, ciphertext, aad), tag):
            raise AuthenticationError("shake-etm tag mismatch")
        return self._stream(nonce).xor_at(ciphertext, 0)


class ShakeEtm(_OneShot):
    """One-shot shake-etm for one (key, nonce)."""

    schedule = ShakeEtmSchedule
