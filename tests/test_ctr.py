"""CTR mode pinned to NIST SP 800-38A F.5.1 (AES-128-CTR)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES
from repro.crypto.chacha20 import ChaCha20Cipher
from repro.crypto.ctr import CtrCipher, derive_nonce
from repro.errors import EncryptionError

# SP 800-38A F.5.1: the initial counter block is
# f0f1f2f3f4f5f6f7f8f9fafb fcfdfeff -> our nonce is the first 12 bytes and the
# starting 32-bit counter is 0xfcfdfeff.
_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafb")
_START_COUNTER = 0xFCFDFEFF
_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)


def _sp800_38a_cipher():
    return CtrCipher(AES(_KEY), _NONCE)


def test_sp800_38a_f51_vector():
    cipher = _sp800_38a_cipher()
    offset = _START_COUNTER * 16
    assert cipher.xor_at(_PLAINTEXT, offset) == _CIPHERTEXT


def test_sp800_38a_decrypt():
    cipher = _sp800_38a_cipher()
    offset = _START_COUNTER * 16
    assert cipher.xor_at(_CIPHERTEXT, offset) == _PLAINTEXT


def test_random_access_matches_sequential():
    cipher = CtrCipher(AES(bytes(16)), bytes(12))
    full = cipher.keystream(0, 100)
    assert cipher.keystream(37, 20) == full[37:57]
    assert cipher.keystream(0, 1) == full[:1]
    assert cipher.keystream(99, 1) == full[99:]


def test_empty_keystream():
    cipher = CtrCipher(AES(bytes(16)), bytes(12))
    assert cipher.keystream(10, 0) == b""
    assert cipher.xor_at(b"", 0) == b""


def test_bad_nonce_size():
    with pytest.raises(EncryptionError):
        CtrCipher(AES(bytes(16)), b"short")


def test_counter_overflow_rejected():
    cipher = CtrCipher(AES(bytes(16)), bytes(12))
    with pytest.raises(EncryptionError):
        cipher.keystream(2 ** 32 * 16, 16)


@given(st.binary(max_size=300), st.integers(min_value=0, max_value=10_000))
def test_xor_at_is_involution(data, offset):
    cipher = CtrCipher(AES(bytes(16)), bytes(12))
    assert cipher.xor_at(cipher.xor_at(data, offset), offset) == data


@given(st.binary(min_size=1, max_size=64))
def test_nonce_separation(data):
    c1 = CtrCipher(AES(bytes(16)), bytes(12))
    c2 = CtrCipher(AES(bytes(16)), b"\x01" + bytes(11))
    assert c1.xor_at(data, 0) != c2.xor_at(data, 0)


@pytest.mark.parametrize("make", [
    lambda nonce: CtrCipher(AES(_KEY), nonce),
    lambda nonce: ChaCha20Cipher(bytes(range(32)), nonce),
], ids=["aes-ctr", "chacha20"])
def test_a_unit_stream_runs_from_zero_under_its_derived_nonce(make):
    data, offset = bytes(range(200)), 4_096 + 77
    unit = make(_NONCE).xor_unit(data, offset)
    assert unit == make(derive_nonce(_NONCE, offset)).xor_at(data, 0)
    assert unit != make(_NONCE).xor_at(data, offset)
