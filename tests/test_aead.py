"""AEAD primitive tests: published vectors, nonce derivation, registry.

The pure-Python AEAD constructions are checked against the official
vectors (RFC 8439 for ChaCha20-Poly1305, the GCM spec's canonical
256-bit-key test cases for AES-GCM) so a transcription slip in the
field arithmetic cannot masquerade as "roundtrips fine".
"""

import hashlib

import pytest

from repro.crypto import aead
from repro.crypto.aead import (
    TAG_SIZE,
    AesGcm,
    ChaCha20Poly1305,
    ShakeEtm,
    derive_nonce,
)
from repro.crypto.cipher import (
    CRYPTO_STATS,
    available_schemes,
    create_aead,
    create_cipher,
    generate_key,
    generate_nonce,
    spec_for,
)
from repro.errors import AuthenticationError, EncryptionError

AEAD_SCHEMES = [s for s in available_schemes() if spec_for(s).aead]


# --------------------------------------------------------------------------
# Published vectors
# --------------------------------------------------------------------------


def test_rfc8439_chacha20_poly1305_vector():
    """RFC 8439 section 2.8.2 -- the full AEAD construction."""
    key = bytes(range(0x80, 0xA0))
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ciphertext = bytes.fromhex(
        "d31a8d34648e60db7b86afbc53ef7ec2"
        "a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b"
        "1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58"
        "fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b"
        "6116"
    )
    tag = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

    sealed = ChaCha20Poly1305(key, nonce).seal(plaintext, aad)
    assert sealed == ciphertext + tag
    assert ChaCha20Poly1305(key, nonce).open(sealed, aad) == plaintext


def test_gcm_spec_aes256_empty_vector():
    """GCM spec test case 13: 256-bit zero key, empty plaintext and AAD."""
    sealed = AesGcm(bytes(32), bytes(12)).seal(b"")
    assert sealed == bytes.fromhex("530f8afbc74536b9a963b4f1c4cb738b")


def test_gcm_spec_aes256_one_block_vector():
    """GCM spec test case 14: 256-bit zero key, one zero block."""
    sealed = AesGcm(bytes(32), bytes(12)).seal(bytes(16))
    assert sealed == bytes.fromhex(
        "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
    )
    assert AesGcm(bytes(32), bytes(12)).open(sealed) == bytes(16)


def test_shake_etm_deterministic_and_keyed():
    """No published vectors exist for the SHAKE construction; pin the
    properties instead: deterministic under one (key, nonce), different
    under another."""
    key, nonce = bytes(32), bytes(16)
    first = ShakeEtm(key, nonce).seal(b"payload")
    second = ShakeEtm(key, nonce).seal(b"payload")
    other_key = ShakeEtm(b"\x01" * 32, nonce).seal(b"payload")
    assert first == second
    assert first != other_key
    assert ShakeEtm(key, nonce).open(first) == b"payload"


# --------------------------------------------------------------------------
# Nonce derivation
# --------------------------------------------------------------------------


def test_derive_nonce_distinct_per_offset():
    base = bytes(range(12))
    seen = {derive_nonce(base, offset) for offset in (0, 1, 16, 4096, 2**32)}
    assert len(seen) == 5
    for nonce in seen:
        assert len(nonce) == len(base)
        assert nonce[:4] == base[:4]  # only the low 8 bytes fold the offset


def test_derive_nonce_zero_offset_is_identity():
    base = bytes(range(16))
    assert derive_nonce(base, 0) == base


def test_derive_nonce_rejects_bad_inputs():
    with pytest.raises(EncryptionError):
        derive_nonce(bytes(4), 0)  # too short to fold 8 offset bytes
    with pytest.raises(EncryptionError):
        derive_nonce(bytes(12), -1)


# --------------------------------------------------------------------------
# Registry-level AEAD contexts
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_registry_roundtrip(scheme):
    key, nonce = generate_key(scheme), generate_nonce(scheme)
    data = b"the quick brown fox" * 7
    sealed = create_aead(scheme, key, nonce).seal(data, b"role")
    assert len(sealed) == len(data) + TAG_SIZE
    assert data not in sealed
    assert create_aead(scheme, key, nonce).open(sealed, b"role") == data


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_every_bit_flip_is_detected(scheme):
    key, nonce = generate_key(scheme), generate_nonce(scheme)
    sealed = bytearray(create_aead(scheme, key, nonce).seal(b"twelve bytes"))
    for position in range(len(sealed)):
        sealed[position] ^= 0x01
        with pytest.raises(AuthenticationError):
            create_aead(scheme, key, nonce).open(bytes(sealed))
        sealed[position] ^= 0x01


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_aad_binding(scheme):
    key, nonce = generate_key(scheme), generate_nonce(scheme)
    sealed = create_aead(scheme, key, nonce).seal(b"data", b"sst-footer")
    with pytest.raises(AuthenticationError):
        create_aead(scheme, key, nonce).open(sealed, b"sst-index")
    with pytest.raises(AuthenticationError):
        create_aead(scheme, key, nonce).open(sealed, b"")


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_truncated_sealed_unit_rejected(scheme):
    key, nonce = generate_key(scheme), generate_nonce(scheme)
    sealed = create_aead(scheme, key, nonce).seal(b"data")
    for cut in (len(sealed) - 1, TAG_SIZE - 1, 1, 0):
        with pytest.raises(AuthenticationError):
            create_aead(scheme, key, nonce).open(sealed[:cut])


def test_interface_mismatch_rejected():
    """Stream schemes have no seal; AEAD schemes have no seekable XOR."""
    with pytest.raises(EncryptionError):
        create_aead("shake-ctr", generate_key("shake-ctr"), generate_nonce("shake-ctr"))
    with pytest.raises(EncryptionError):
        create_cipher("shake-etm", generate_key("shake-etm"), generate_nonce("shake-etm"))


def test_auth_verdict_accounting():
    scheme = "shake-etm"
    key, nonce = generate_key(scheme), generate_nonce(scheme)
    sealed = create_aead(scheme, key, nonce).seal(b"counted")
    ok_before = CRYPTO_STATS.counter("crypto.auth_ok").value
    fail_before = CRYPTO_STATS.counter("crypto.auth_fail").value
    create_aead(scheme, key, nonce).open(sealed)
    with pytest.raises(AuthenticationError):
        create_aead(scheme, key, nonce).open(sealed, b"wrong-aad")
    assert CRYPTO_STATS.counter("crypto.auth_ok").value == ok_before + 1
    assert CRYPTO_STATS.counter("crypto.auth_fail").value == fail_before + 1


# --------------------------------------------------------------------------
# The MAC holds the GIL
# --------------------------------------------------------------------------


class _RecordingMac:
    def __init__(self, inner, lengths):
        self._inner, self._lengths = inner, lengths

    def update(self, data):
        self._lengths.append(len(data))
        self._inner.update(data)

    def copy(self):
        return _RecordingMac(self._inner.copy(), self._lengths)

    def digest(self):
        return self._inner.digest()


class _RecordingHashlib:
    """Stands in for ``repro.crypto.aead``'s hashlib: every BLAKE2b object,
    and every copy of one, records the length of each ``update()``."""

    def __init__(self):
        self.lengths = []

    def shake_256(self, *args, **kwargs):
        return hashlib.shake_256(*args, **kwargs)

    def blake2b(self, *args, **kwargs):
        return _RecordingMac(hashlib.blake2b(*args, **kwargs), self.lengths)


def test_the_mac_is_never_fed_enough_to_release_the_gil(monkeypatch):
    """CPython's hashlib lets go of the GIL inside an ``update()`` of 2,048
    bytes or more; on a foreground read that handed the interpreter to
    background compaction.  A 70 KiB unit's MAC must arrive in smaller
    slices, both ways, and the tag must not move."""
    key, nonce = generate_key("shake-etm"), generate_nonce("shake-etm")
    unit = bytes(range(256)) * 280
    sealed = ShakeEtm(key, nonce).seal(unit, b"role")
    shim = _RecordingHashlib()
    monkeypatch.setattr(aead, "hashlib", shim)
    context = ShakeEtm(key, nonce)
    for step in (
        lambda: context.seal(unit, b"role") == sealed,
        lambda: context.open(sealed, b"role") == unit,
    ):
        shim.lengths.clear()
        assert step()
        assert sum(shim.lengths) >= len(unit)  # the ciphertext went through
        assert max(shim.lengths) <= 2047
