"""Cipher registry, scheme identifiers, and global cost accounting.

Every persistent-file envelope stores a one-byte *scheme id* so a reader (on
any server in a disaggregated deployment) knows how to construct the cipher
once it has resolved the DEK.  ``CRYPTO_STATS`` counts context
initializations and bytes processed, which is exactly the decomposition the
paper uses to explain the WAL-write bottleneck (Section 3.2 / Figure 4).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Protocol

from repro.crypto.aead import (
    TAG_SIZE,
    AeadUnit,
    AesGcmSchedule,
    ChaCha20Poly1305Schedule,
    ShakeEtmSchedule,
)
from repro.crypto.aes import AES
from repro.crypto.chacha20 import ChaCha20Cipher
from repro.crypto.ctr import CtrCipher
from repro.crypto.xof import ShakeCtrCipher
from repro.errors import AuthenticationError, EncryptionError
from repro.obs import costs
from repro.util.stats import StatsRegistry

SCHEME_NONE = 0

CRYPTO_STATS = StatsRegistry()
# Bound once: every block read and WAL seal updates these, and reset() zeroes
# them in place.
_BYTES = CRYPTO_STATS.counter("crypto.bytes")
_OPS = CRYPTO_STATS.counter("crypto.ops")
_SEALS = CRYPTO_STATS.counter("crypto.seals")
_AUTH_OK = CRYPTO_STATS.counter("crypto.auth_ok")
_AUTH_FAIL = CRYPTO_STATS.counter("crypto.auth_fail")
_INITS = CRYPTO_STATS.counter("crypto.context_inits")
_BULK_S = CRYPTO_STATS.histogram("crypto.bulk_s")
_INIT_S = CRYPTO_STATS.histogram("crypto.init_s")


class StreamCipher(Protocol):
    """A seekable XOR stream cipher: encryption and decryption coincide."""

    def keystream(self, offset: int, length: int) -> bytes:
        ...

    def xor_at(self, data: bytes, offset: int) -> bytes:
        ...


class AeadSchedule(Protocol):
    """An AEAD key schedule: the key-only work done once; every unit's
    seal/open is the per-nonce step under it."""

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        ...

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        ...


@dataclass(frozen=True)
class CipherSpec:
    """Static description of one encryption scheme."""

    name: str
    scheme_id: int
    key_size: int
    nonce_size: int
    #: Stream schemes: ``(key, nonce) -> StreamCipher``.  AEAD schemes:
    #: ``(key) -> AeadSchedule``; the nonce is per unit.
    factory: Callable[..., object]
    #: AEAD schemes seal whole units (ciphertext grows by ``tag_size``)
    #: instead of producing a seekable keystream.
    aead: bool = False
    tag_size: int = 0


def _make_aes_ctr(key: bytes, nonce: bytes) -> StreamCipher:
    return CtrCipher(AES(key), nonce)  # the key length picks AES-128/256


_SPECS: dict[str, CipherSpec] = {}
_SPECS_BY_ID: dict[int, CipherSpec] = {}


def _register(spec: CipherSpec) -> None:
    if spec.name in _SPECS or spec.scheme_id in _SPECS_BY_ID:
        raise ValueError(f"duplicate cipher registration: {spec.name}")
    _SPECS[spec.name] = spec
    _SPECS_BY_ID[spec.scheme_id] = spec


_register(CipherSpec("aes-128-ctr", 1, 16, 12, _make_aes_ctr))
_register(CipherSpec("aes-256-ctr", 2, 32, 12, _make_aes_ctr))
_register(CipherSpec("chacha20", 3, 32, 12, ChaCha20Cipher))
_register(CipherSpec("shake-ctr", 4, 32, 16, ShakeCtrCipher))
_register(CipherSpec("aes-256-gcm", 5, 32, 12, AesGcmSchedule,
                     aead=True, tag_size=TAG_SIZE))
_register(CipherSpec("chacha20-poly1305", 6, 32, 12, ChaCha20Poly1305Schedule,
                     aead=True, tag_size=TAG_SIZE))
_register(CipherSpec("shake-etm", 7, 32, 16, ShakeEtmSchedule,
                     aead=True, tag_size=TAG_SIZE))


def available_schemes() -> list[str]:
    """Names of every registered scheme."""
    return sorted(_SPECS)


def spec_for(scheme: str | int) -> CipherSpec:
    """Look up a scheme by name or numeric id."""
    if isinstance(scheme, int):
        spec = _SPECS_BY_ID.get(scheme)
    else:
        spec = _SPECS.get(scheme)
    if spec is None:
        raise EncryptionError(f"unknown cipher scheme: {scheme!r}")
    return spec


def scheme_id(name: str) -> int:
    return spec_for(name).scheme_id


def scheme_name(identifier: int) -> str:
    return spec_for(identifier).name


def generate_key(scheme: str) -> bytes:
    """Generate a random key of the right size for ``scheme``."""
    return os.urandom(spec_for(scheme).key_size)


def generate_nonce(scheme: str) -> bytes:
    """Generate a random per-file nonce of the right size for ``scheme``."""
    return os.urandom(spec_for(scheme).nonce_size)


class _MeteredCipher:
    """Wrap a cipher so keystream/xor work is counted in CRYPTO_STATS.

    Bulk work is also wall-timed: ``crypto.bulk_s`` (together with
    ``crypto.init_s`` from :func:`create_cipher`) is the paper's
    EVP-init-vs-bulk decomposition, and the same duration is charged to
    any active cost-attribution context as ``encrypt``.  It holds nothing
    but the immutable inner context, so ``FileCrypto.open`` shares one
    instance between a file's concurrent readers.
    """

    def __init__(self, inner: StreamCipher):
        self._inner = inner

    def keystream(self, offset: int, length: int) -> bytes:
        start = perf_counter()
        out = self._inner.keystream(offset, length)
        elapsed = perf_counter() - start
        _BYTES.add(length)
        _BULK_S.record(elapsed)
        costs.charge("encrypt", elapsed, length)
        return out

    def xor_at(self, data: bytes, offset: int) -> bytes:
        start = perf_counter()
        out = self._inner.xor_at(data, offset)
        elapsed = perf_counter() - start
        _BYTES.add(len(data))
        _OPS.add(1)
        _BULK_S.record(elapsed)
        costs.charge("encrypt", elapsed, len(data))
        return out


class _MeteredAead:
    """Wrap an AEAD key schedule so each unit's seal/open work and verdict
    is counted.

    ``crypto.auth_ok`` / ``crypto.auth_fail`` are the registry-level tag
    verification counters the integrity gauges export; bulk time is charged
    to the same ``encrypt`` cost class as the stream ciphers so AEAD
    overhead shows up in the existing attribution.  Like the schedule it
    holds, it is shared unlocked by every unit and thread of one file.
    """

    def __init__(self, inner: AeadSchedule):
        self._inner = inner

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        start = perf_counter()
        out = self._inner.seal(nonce, plaintext, aad)
        elapsed = perf_counter() - start
        _BYTES.add(len(plaintext))
        _OPS.add(1)
        _SEALS.add(1)
        _BULK_S.record(elapsed)
        costs.charge("encrypt", elapsed, len(plaintext))
        return out

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        start = perf_counter()
        try:
            out = self._inner.open(nonce, sealed, aad)
        except AuthenticationError:
            _AUTH_FAIL.add(1)
            raise
        elapsed = perf_counter() - start
        _BYTES.add(len(out))
        _OPS.add(1)
        _AUTH_OK.add(1)
        _BULK_S.record(elapsed)
        costs.charge("encrypt", elapsed, len(out))
        return out


def _new_context(spec: CipherSpec, key: bytes, nonce: bytes):
    """Check the material and build one context, counted and timed as an
    init: a stream cipher over (key, nonce), or an AEAD key schedule, whose
    units' nonces are the same size as ``nonce``."""
    if len(key) != spec.key_size:
        raise EncryptionError(
            f"{spec.name} needs a {spec.key_size}-byte key, got {len(key)}"
        )
    if len(nonce) != spec.nonce_size:
        raise EncryptionError(
            f"{spec.name} needs a {spec.nonce_size}-byte nonce, got {len(nonce)}"
        )
    start = perf_counter()
    context = spec.factory(key) if spec.aead else spec.factory(key, nonce)
    elapsed = perf_counter() - start
    _INITS.add(1)
    _INIT_S.record(elapsed)
    costs.charge("encrypt_init", elapsed)
    return context


def create_cipher(scheme: str | int, key: bytes, nonce: bytes) -> StreamCipher:
    """Instantiate a stream-cipher context (counted and timed as one init)."""
    spec = spec_for(scheme)
    if spec.aead:
        raise EncryptionError(
            f"{spec.name} is an AEAD scheme: use create_aead (sealed units), "
            "not the seekable stream-cipher interface"
        )
    return _MeteredCipher(_new_context(spec, key, nonce))


def create_aead_schedule(scheme: str | int, key: bytes, nonce: bytes) -> _MeteredAead:
    """Instantiate an AEAD key schedule (one counted init) whose
    ``seal(nonce, ...)`` / ``open(nonce, ...)`` take each unit's nonce;
    ``nonce`` is checked for size only: it is the base the units' nonces
    derive from."""
    spec = spec_for(scheme)
    if not spec.aead:
        raise EncryptionError(
            f"{spec.name} is a stream cipher, not an AEAD scheme"
        )
    return _MeteredAead(_new_context(spec, key, nonce))


def create_aead(scheme: str | int, key: bytes, nonce: bytes) -> AeadUnit:
    """Instantiate an AEAD context for one sealed unit: a fresh key schedule
    bound to ``nonce`` (one counted init)."""
    return AeadUnit(create_aead_schedule(scheme, key, nonce), nonce)
