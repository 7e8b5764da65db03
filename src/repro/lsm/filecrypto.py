"""The encryption seam between the LSM engine and the crypto substrate.

A :class:`FileCrypto` handles exactly one file's payload as a sequence of
*units* (an SST block, a WAL write, the footer): ``seal`` turns a unit into
what is stored at its payload offset, ``tag_size`` bytes longer, and
``open`` turns it back.  Stream ciphers XOR at the offset with tag 0, AEAD
schemes append and verify a tag; the writers and readers above this seam
see only the contract, never the flavour.

The stream flavour's ``seal`` builds a fresh cipher context from the (key,
nonce) pair on every call -- mirroring how OpenSSL EVP contexts are
re-initialized per operation, the "encryption initialization" cost the paper
identifies as the WAL bottleneck and amortises with the WAL buffer (Section
3.2) -- so sealing shares no state across SHIELD's multi-threaded chunk
encryption.  Its ``open`` pays that init once per file: the context is
immutable and lives exactly as long as the FileCrypto holding the key.  The
AEAD flavour pays it once per file both ways -- an ``EVP_CIPHER_CTX`` keyed
once and handed a new IV per unit: one key schedule, and per unit only the
step its offset-derived nonce needs.

A :class:`CryptoProvider` decides the policy:

- :class:`PlaintextCryptoProvider` -- no encryption (baseline RocksDB).
- :class:`SingleKeyCryptoProvider` -- one instance-wide DEK (used inside
  EncFS and as the paper's "single DEK" strawman).
- ``repro.shield.ShieldCryptoProvider`` -- per-file DEKs from a KDS with
  rotation and secure caching.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate

from repro.crypto.aead import derive_nonce
from repro.crypto.cipher import (
    SCHEME_NONE,
    create_aead_schedule,
    create_cipher,
    generate_nonce,
    spec_for,
)
from repro.errors import EncryptionError
from repro.lsm.envelope import Envelope


def _fan_out(seal, calls: list[tuple], threads: int) -> bytes:
    """Join ``seal(*call)`` for every call, on up to ``threads`` threads.

    Threads buy nothing for the schemes here (measured; DESIGN.md's fidelity
    notes): CPython's hashlib releases the GIL only inside ``update()`` of
    >= 2 KiB, a SHAKE keystream is a *squeeze* (``digest(n)``), which holds
    it -- two threads of shake-ctr ``xor_at`` on 64 KiB run at 0.76-0.93x of
    sequential -- shake-etm's MAC is fed below that size on purpose
    (``repro.crypto.aead.MAC_SLICE``), and pure-Python AES threads merely
    interleave.
    """
    if threads <= 1 or len(calls) <= 1:
        return b"".join(seal(*call) for call in calls)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return b"".join(pool.map(lambda call: seal(*call), calls))


class FileCrypto:
    """Per-file payload encryption; offset 0 is the first payload byte.

    This class is the plaintext and stream-cipher flavour of the contract:
    no tag, ``aad`` unused, and a seekable XOR keystream, so sealing is
    length-preserving and unit boundaries leave no trace in the bytes.
    """

    tag_size = 0

    def __init__(self, scheme_id: int, dek_id: str, key: bytes, nonce: bytes):
        self.scheme_id = scheme_id
        self.dek_id = dek_id
        self._key = key
        self.nonce = nonce
        self._context = None  # the file's one context, built on first use

    @property
    def encrypted(self) -> bool:
        return self.scheme_id != SCHEME_NONE

    def _new_context(self):
        return create_cipher(self.scheme_id, self._key, self.nonce)

    def _file_context(self):
        """The file's one context.  It is immutable, so concurrent readers
        share it unlocked; two first uses racing build one each, harmlessly."""
        if self._context is None:
            self._context = self._new_context()
        return self._context

    def seal(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        if not self.encrypted or not data:
            return data
        return self._new_context().xor_at(data, offset)

    def open(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """``seal``'s involution, through the file's one context."""
        if not self.encrypted or not data:
            return data
        return self._file_context().xor_at(data, offset)

    def seal_units(self, units: list[tuple], chunk_size: int, threads: int) -> bytes:
        """Seal a back-to-back run of ``(data, offset, aad)`` units -- the
        arguments of one ``seal`` each; returns the stored bytes.

        SHIELD encrypts compaction/flush output "in user-configurable-sized
        chunks for finer-grained control", optionally in parallel (Section
        5.2, Figure 13).  CTR streams make this trivially correct: each
        chunk encrypts independently at its own payload offset and the
        concatenation is identical to one sequential pass.
        """
        payload = b"".join(data for data, __, ___ in units)
        if not self.encrypted or not payload:
            return payload
        base = units[0][1]
        chunks = [
            (payload[start:start + chunk_size], base + start)
            for start in range(0, len(payload), chunk_size)
        ]
        return _fan_out(self.seal, chunks, threads)

    def open_units(self, raw: bytes, offset: int, sizes: list[int]) -> list[bytes]:
        """``seal_units``' inverse for a back-to-back run of units sealed
        with no ``aad``: ``raw`` holds units of ``sizes`` stored bytes from
        payload ``offset``; returns each one opened.  One ``open`` over the
        whole run -- unit boundaries leave no trace in a stream."""
        opened = self.open(raw, offset)
        return [
            opened[start:start + size]
            for start, size in zip(accumulate(sizes, initial=0), sizes)
        ]

    def envelope(self, file_kind: int) -> Envelope:
        return Envelope(
            file_kind=file_kind,
            scheme_id=self.scheme_id,
            dek_id=self.dek_id,
            nonce=self.nonce,
        )


class AeadFileCrypto(FileCrypto):
    """Per-file AEAD: the payload is a sequence of independently sealed units.

    Each unit is sealed under a nonce derived from the per-file base nonce
    and the unit's payload offset, so a unit cannot be relocated, swapped,
    or bit-flipped without failing its tag.  The file's one context is the
    scheme's key schedule; each unit's seal or open is the per-nonce step
    under it.
    """

    def __init__(self, scheme_id: int, dek_id: str, key: bytes, nonce: bytes):
        super().__init__(scheme_id, dek_id, key, nonce)
        self.tag_size = spec_for(scheme_id).tag_size

    def _new_context(self):
        return create_aead_schedule(self.scheme_id, self._key, self.nonce)

    def seal(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        return self._file_context().seal(derive_nonce(self.nonce, offset), data, aad)

    def open(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """Authenticate, then decrypt: ``AuthenticationError`` on any flipped
        bit, relocated unit or wrong ``aad``."""
        return self._file_context().open(derive_nonce(self.nonce, offset), data, aad)

    def seal_units(self, units: list[tuple], chunk_size: int, threads: int) -> bytes:
        """One seal per unit whatever ``chunk_size``: the tag is fixed-size,
        so every offset is known up front and units seal independently -- the
        same parallelism the stream flavour gets from chunks."""
        self._file_context()  # built before any thread can race to build it
        return _fan_out(self.seal, units, threads)

    def open_units(self, raw: bytes, offset: int, sizes: list[int]) -> list[bytes]:
        """One ``open`` per unit, each under its own offset-derived nonce."""
        return [
            self.open(raw[start:start + size], offset + start)
            for start, size in zip(accumulate(sizes, initial=0), sizes)
        ]


def make_file_crypto(
    scheme_id: int, dek_id: str, key: bytes, nonce: bytes
) -> FileCrypto:
    """Build the right FileCrypto flavour for a scheme id."""
    if scheme_id == SCHEME_NONE:
        return NULL_CRYPTO
    if spec_for(scheme_id).aead:
        return AeadFileCrypto(scheme_id, dek_id, key, nonce)
    return FileCrypto(scheme_id, dek_id, key, nonce)


#: Shared no-op crypto for plaintext files.
NULL_CRYPTO = FileCrypto(SCHEME_NONE, "", b"", b"")


class CryptoProvider:
    """Decides how each engine file is encrypted and how DEKs are resolved."""

    def for_new_file(self, file_kind: int, path: str) -> FileCrypto:
        """Crypto for a file about to be created."""
        raise NotImplementedError

    def for_existing_file(self, envelope: Envelope, path: str) -> FileCrypto:
        """Crypto for a file being opened; resolves the envelope's DEK-ID."""
        raise NotImplementedError

    def on_file_deleted(self, envelope_dek_id: str, path: str) -> None:
        """Called when a file is destroyed (lets providers retire DEKs)."""


class PlaintextCryptoProvider(CryptoProvider):
    """No encryption anywhere: the unencrypted-RocksDB baseline."""

    def for_new_file(self, file_kind: int, path: str) -> FileCrypto:
        return NULL_CRYPTO

    def for_existing_file(self, envelope: Envelope, path: str) -> FileCrypto:
        if envelope.encrypted:
            raise EncryptionError(
                f"{path} is encrypted (scheme {envelope.scheme_id}) but the "
                "database was opened without a crypto provider"
            )
        return NULL_CRYPTO


class SingleKeyCryptoProvider(CryptoProvider):
    """One DEK for every file, fresh nonce per file.

    This is the instance-level design's key policy (Section 4): simple and
    transparent, but a DEK compromise exposes the entire store and rotation
    means re-encrypting everything.
    """

    def __init__(self, scheme: str, key: bytes, dek_id: str = "instance-dek"):
        spec = spec_for(scheme)
        if len(key) != spec.key_size:
            raise EncryptionError(
                f"{scheme} needs a {spec.key_size}-byte key, got {len(key)}"
            )
        self.scheme = scheme
        self._scheme_id = spec.scheme_id
        self._key = key
        self.dek_id = dek_id

    def for_new_file(self, file_kind: int, path: str) -> FileCrypto:
        return make_file_crypto(
            self._scheme_id, self.dek_id, self._key, generate_nonce(self.scheme)
        )

    def for_existing_file(self, envelope: Envelope, path: str) -> FileCrypto:
        if not envelope.encrypted:
            return NULL_CRYPTO
        if envelope.scheme_id != self._scheme_id:
            raise EncryptionError(
                f"{path} uses scheme {envelope.scheme_id}, provider has "
                f"{self._scheme_id}"
            )
        return make_file_crypto(
            self._scheme_id, envelope.dek_id, self._key, envelope.nonce
        )
