"""Tests for the FileCrypto seam: the seal/open unit contract per flavour."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import derive_nonce
from repro.crypto.cipher import (
    CRYPTO_STATS,
    SCHEME_NONE,
    create_aead,
    generate_key,
    generate_nonce,
    scheme_id,
    spec_for,
)
from repro.errors import AuthenticationError, EncryptionError
from repro.lsm.envelope import FILE_KIND_SST
from repro.lsm.filecrypto import (
    FileCrypto,
    NULL_CRYPTO,
    PlaintextCryptoProvider,
    SingleKeyCryptoProvider,
    make_file_crypto,
)


AEAD_SCHEMES = ["shake-etm", "chacha20-poly1305", "aes-256-gcm"]


def _crypto():
    return FileCrypto(
        scheme_id("shake-ctr"),
        "dek-t",
        generate_key("shake-ctr"),
        generate_nonce("shake-ctr"),
    )


def _flavour(scheme):
    if scheme == "none":
        return make_file_crypto(SCHEME_NONE, "", b"", b"")
    spec = spec_for(scheme)
    return make_file_crypto(
        spec.scheme_id, "dek-f", b"k" * spec.key_size, b"n" * spec.nonce_size
    )


def test_null_crypto_passthrough():
    assert NULL_CRYPTO.seal_unit(b"data", 0) == b"data"
    assert NULL_CRYPTO.open_unit(b"data", 99) == b"data"
    assert not NULL_CRYPTO.encrypted


@pytest.mark.parametrize(
    "scheme", ["none", "shake-ctr", "chacha20", "shake-etm", "chacha20-poly1305"]
)
def test_open_inverts_seal_and_only_tagged_flavours_bind_aad(scheme):
    crypto = _flavour(scheme)
    sealed = crypto.seal_unit(b"payload", 1234, b"role")
    assert len(sealed) == len(b"payload") + crypto.tag_size
    assert (sealed != b"payload") == crypto.encrypted
    assert crypto.open_unit(sealed, 1234, b"role") == b"payload"
    if crypto.tag_size:
        with pytest.raises(AuthenticationError):
            crypto.open_unit(sealed, 1234, b"other-role")
        with pytest.raises(AuthenticationError):
            crypto.open_unit(sealed, 1235, b"role")
    else:
        assert crypto.open_unit(sealed, 1234, b"other-role") == b"payload"
    assert not hasattr(crypto, "encrypt") and not hasattr(crypto, "decrypt")


def test_envelope_from_crypto():
    crypto = _crypto()
    envelope = crypto.envelope(FILE_KIND_SST)
    assert envelope.dek_id == "dek-t"
    assert envelope.scheme_id == crypto.scheme_id
    assert envelope.nonce == crypto.nonce


def test_single_key_provider_bad_key():
    with pytest.raises(EncryptionError):
        SingleKeyCryptoProvider("shake-ctr", b"short")


def test_single_key_provider_scheme_check():
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    crypto = provider.for_new_file(FILE_KIND_SST, "/f")
    envelope = crypto.envelope(FILE_KIND_SST)
    # A provider configured for a different scheme refuses the file.
    other = SingleKeyCryptoProvider("chacha20", generate_key("chacha20"))
    with pytest.raises(EncryptionError):
        other.for_existing_file(envelope, "/f")


def test_plaintext_provider_accepts_plain():
    provider = PlaintextCryptoProvider()
    crypto = provider.for_new_file(FILE_KIND_SST, "/f")
    assert not crypto.encrypted
    assert provider.for_existing_file(crypto.envelope(FILE_KIND_SST), "/f") \
        is not None


def _units(payload, cuts, base_offset, tag_size):
    """Split ``payload`` at ``cuts`` into back-to-back (data, offset, aad)."""
    units, offset = [], base_offset
    bounds = [0, *sorted(c % (len(payload) + 1) for c in cuts), len(payload)]
    for start, end in zip(bounds, bounds[1:]):
        units.append((payload[start:end], offset, b"u%d" % len(units)))
        offset += end - start + tag_size
    return units


@settings(max_examples=40, deadline=None)
@given(
    payload=st.binary(max_size=100_000),
    cuts=st.lists(st.integers(min_value=0, max_value=100_000), max_size=6),
    chunk_size=st.integers(min_value=1, max_value=8192),
    threads=st.integers(min_value=1, max_value=4),
    base_offset=st.integers(min_value=0, max_value=100_000),
)
def test_stream_seal_units_equals_single_pass(payload, cuts, chunk_size,
                                              threads, base_offset):
    """seal_units must equal one pass over every unit (one run, one
    thread), for any unit boundaries, chunking, threading, and offset: each
    unit is keyed on its own offset (SST format v3), so the stored run is
    every unit's own stream, back to back, and every unit opens alone."""
    crypto = FileCrypto(
        scheme_id("shake-ctr"), "dek-p", b"k" * 32, b"n" * 16
    )
    units = _units(payload, cuts, base_offset, 0)
    stored = crypto.seal_units(units, chunk_size, threads)
    assert stored == crypto.seal_units(units, len(payload) + 1, 1)
    assert stored == b"".join(crypto.open_unit(data, at) for data, at, __ in units)
    assert stored == b"".join(crypto.seal_unit(data, at) for data, at, __ in units)
    for data, offset, __ in units:
        start = offset - base_offset
        assert crypto.open_unit(stored[start:start + len(data)], offset) == data
    assert NULL_CRYPTO.seal_units(units, chunk_size, threads) == payload


@settings(max_examples=20, deadline=None)
@given(
    payload=st.binary(max_size=20_000),
    cuts=st.lists(st.integers(min_value=0, max_value=20_000), max_size=6),
    chunk_size=st.integers(min_value=1, max_value=8192),
    threads=st.integers(min_value=1, max_value=4),
    base_offset=st.integers(min_value=0, max_value=100_000),
)
def test_aead_seal_units_is_each_unit_sealed_in_place(payload, cuts, chunk_size,
                                                      threads, base_offset):
    """Whatever the chunk size and thread count, the stored run is every
    unit sealed at its own offset under its own aad, back to back."""
    crypto = _flavour("shake-etm")
    units = _units(payload, cuts, base_offset, crypto.tag_size)
    stored = crypto.seal_units(units, chunk_size, threads)
    assert stored == b"".join(crypto.seal_unit(*unit) for unit in units)
    for data, offset, aad in units:
        start = offset - base_offset
        sealed = stored[start:start + len(data) + crypto.tag_size]
        assert crypto.open_unit(sealed, offset, aad) == data


def test_seal_units_of_nothing_is_empty():
    assert NULL_CRYPTO.seal_units([], 2, 4) == b""
    assert _crypto().seal_units([(b"", 7, b"")], 16, 2) == b""


def _inits():
    return CRYPTO_STATS.counter("crypto.context_inits").value


@pytest.mark.parametrize("scheme", ["shake-ctr", "aes-128-ctr", "chacha20"])
def test_stream_open_builds_one_context_per_file_and_seal_one_per_call(scheme):
    crypto = _flavour(scheme)
    before = _inits()
    sealed = [crypto.seal_unit(b"unit-%d" % i, 100 * i) for i in range(5)]
    assert _inits() - before == 5  # the modelled per-operation EVP init
    before = _inits()
    for i, unit in enumerate(sealed):
        assert crypto.open_unit(unit, 100 * i) == b"unit-%d" % i
    assert _inits() - before == 1  # the file's one read context
    # A second FileCrypto over the same file pays its own init.
    again = _flavour(scheme)
    before = _inits()
    assert again.open_unit(sealed[3], 300) == b"unit-3"
    assert _inits() - before == 1
    # A legacy file-offset read shares the file's one context.
    before = _inits()
    assert again.open(crypto.open(b"unit-3", 300), 300) == b"unit-3"
    assert _inits() - before == 0


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_aead_builds_one_key_schedule_per_file_both_ways(scheme):
    crypto = _flavour(scheme)
    before = _inits()
    sealed = [crypto.seal_unit(b"unit-%d" % i, 100 * i, b"aad") for i in range(5)]
    for i, unit in enumerate(sealed):
        assert crypto.open_unit(unit, 100 * i, b"aad") == b"unit-%d" % i
    assert _inits() - before == 1  # seal and open share the file's schedule
    # A second FileCrypto over the same file pays its own.
    again = _flavour(scheme)
    before = _inits()
    assert again.open_unit(sealed[3], 300, b"aad") == b"unit-3"
    assert again.seal_unit(b"unit-3", 300, b"aad") == sealed[3]
    assert _inits() - before == 1


#: Unit sizes per scheme.  shake-etm: around the MAC's 2,047-byte slice, a
#: SHAKE segment (4 KiB) and a chunk.  The pure-Python GCM and
#: ChaCha20-Poly1305 process 16-byte blocks (ChaCha20's keystream comes in
#: 64-byte ones): around those edges, since a 70 KiB unit through them
#: costs seconds and crosses no boundary of their own.
UNIT_SIZES = {
    "shake-etm": [0, 1, 2047, 2048, 4300, 70 * 1024],
    "chacha20-poly1305": [0, 1, 15, 16, 17, 63, 64, 65],
    "aes-256-gcm": [0, 1, 15, 16, 17, 63, 64, 65],
}


@pytest.mark.parametrize("scheme", AEAD_SCHEMES)
def test_a_shared_schedule_seals_what_a_context_per_unit_sealed(scheme):
    """One file's units sealed and opened under its one key schedule are
    byte for byte what a fresh ``create_aead`` per unit gives, and every
    tampering a per-unit context caught is still caught -- without leaving
    the shared schedule unable to open the next unit."""
    spec = spec_for(scheme)
    key, base = generate_key(scheme), generate_nonce(scheme)
    crypto = make_file_crypto(spec.scheme_id, "dek-u", key, base)
    rng = random.Random(scheme)
    offset = rng.randrange(1 << 20)
    for size in UNIT_SIZES[scheme]:
        data, aad = rng.randbytes(size), rng.choice([b"", b"sst-index", b"u7"])
        sealed = crypto.seal_unit(data, offset, aad)
        fresh = create_aead(scheme, key, derive_nonce(base, offset))
        assert sealed == fresh.seal(data, aad)
        assert crypto.open_unit(sealed, offset, aad) == data
        flipped = bytearray(sealed)
        flipped[rng.randrange(len(sealed))] ^= 1 << rng.randrange(8)
        for unit, at, role in (
            (bytes(flipped), offset, aad),  # a bit flip
            (sealed, offset + len(sealed), aad),  # relocated
            (sealed, offset, aad + b"!"),  # the wrong AAD
            (sealed[:-1], offset, aad),  # truncated
        ):
            with pytest.raises(AuthenticationError):
                crypto.open_unit(unit, at, role)
        offset += len(sealed) + rng.randrange(4096)


def test_plaintext_open_builds_no_context():
    before = _inits()
    assert NULL_CRYPTO.open(b"data", 0) == b"data"
    assert _inits() == before


@pytest.mark.parametrize("key, nonce", [(b"k" * 31, b"n" * 16), (b"k" * 32, b"n" * 15)])
def test_bad_key_material_still_fails_the_first_open_and_every_later_one(key, nonce):
    crypto = FileCrypto(scheme_id("shake-ctr"), "dek-bad", key, nonce)
    for __ in range(2):
        with pytest.raises(EncryptionError):
            crypto.open(b"data", 0)

