"""The encryption seam between the LSM engine and the crypto substrate.

A :class:`FileCrypto` handles exactly one file's payload as a sequence of
*units* (an SST block, a log write unit, a replication frame, the footer),
each keyed on its own payload offset: ``seal_unit`` turns a unit into what
is stored at that offset, ``tag_size`` bytes longer, and ``open_unit`` turns
it back; ``seal_units`` / ``open_units`` do the same for a back-to-back run.
Stream ciphers XOR the unit's own keystream with tag 0, AEAD schemes append
and verify a tag; the writers and readers above this seam see only the
contract, never the flavour.  ``open`` is the one other operation: the read
of legacy stream-cipher payloads addressed by one file-offset keystream (v1
logs, SST formats v1/v2), which nothing writes any more.

The stream flavour's ``seal_unit`` builds a fresh cipher context from the
(key, nonce) pair on every call -- mirroring how OpenSSL EVP contexts are
re-initialized per operation, the "encryption initialization" cost the paper
identifies as the WAL bottleneck and amortises with the WAL buffer (Section
3.2), paid once per log unit -- so sealing shares no state across SHIELD's
multi-threaded chunk encryption (``seal_units`` pays it once per chunk-sized
run of units).  Its opens pay that init once per file: the context is
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

from repro.crypto.ctr import derive_nonce
from repro.crypto.cipher import (
    SCHEME_NONE,
    create_aead_schedule,
    create_cipher,
    generate_nonce,
    spec_for,
)
from repro.errors import EncryptionError
from repro.lsm.envelope import ENVELOPE_VERSION, Envelope


def _fan_out(seal, calls: list, threads: int) -> bytes:
    """Join ``seal(call)`` for every call, on up to ``threads`` threads.

    Threads buy nothing for the schemes here (measured; DESIGN.md's fidelity
    notes): CPython's hashlib releases the GIL only inside ``update()`` of
    >= 2 KiB, a SHAKE keystream is a *squeeze* (``digest(n)``), which holds
    it -- two threads of shake-ctr ``xor_at`` on 64 KiB run at 0.76-0.93x of
    sequential -- shake-etm's MAC is fed below that size on purpose
    (``repro.crypto.aead.MAC_SLICE``), and pure-Python AES threads merely
    interleave.
    """
    if threads <= 1 or len(calls) <= 1:
        return b"".join(seal(call) for call in calls)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return b"".join(pool.map(seal, calls))


def split_units(raw: bytes, offset: int, sizes: list[int]) -> list[tuple]:
    """Cut a back-to-back run of ``sizes`` stored units that starts at
    payload ``offset``: ``(stored bytes, offset)`` per unit."""
    return [
        (raw[start:start + size], offset + start)
        for start, size in zip(accumulate(sizes, initial=0), sizes)
    ]


class FileCrypto:
    """Per-file payload encryption; offset 0 is the first payload byte.

    This class is the plaintext and stream-cipher flavour of the contract:
    no tag, ``aad`` unused, and sealing is length-preserving.  Every unit is
    keyed on its own offset, so sealing or opening an n-byte unit costs
    exactly n keystream bytes; ``open`` XORs the one keystream addressed by
    file offset that legacy files hold, where unit boundaries leave no trace
    in the bytes.
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

    def open(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """Read ``data`` at ``offset`` of a legacy file-offset keystream,
        through the file's one context."""
        if not self.encrypted or not data:
            return data
        return self._file_context().xor_at(data, offset)

    def seal_unit(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """Seal one unit keyed on its own ``offset`` (a log's write unit, a
        replication frame): one fresh context, the modelled per-seal EVP
        init, and one keystream squeeze of exactly the unit's length."""
        if not self.encrypted or not data:
            return data
        return self._new_context().xor_units(((data, offset),))[0]

    def open_unit(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """Open the unit ``seal_unit`` or ``seal_units`` stored at
        ``offset``, through the file's one context."""
        if not self.encrypted or not data:
            return data
        return self._file_context().xor_units(((data, offset),))[0]

    def open_units(self, raw: bytes, offset: int, sizes: list[int]) -> list[bytes]:
        """``seal_units``' inverse for a back-to-back run of units sealed
        with no ``aad``: ``raw`` holds units of ``sizes`` stored bytes from
        payload ``offset``; returns each one opened under its own offset."""
        units = split_units(raw, offset, sizes)
        if not self.encrypted:
            return [data for data, __ in units]
        return self._file_context().xor_units(units)

    def _seal_run(self, run: list[tuple]) -> bytes:
        """One fresh context per run: the modelled per-seal EVP init."""
        return b"".join(self._new_context().xor_units(
            [(data, at) for data, at, __ in run]
        ))

    def seal_units(self, units: list[tuple], chunk_size: int, threads: int) -> bytes:
        """Seal a back-to-back run of ``(data, offset, aad)`` units, each
        keyed on its own offset; returns the stored bytes.

        SHIELD encrypts compaction/flush output "in user-configurable-sized
        chunks for finer-grained control", optionally in parallel (Section
        5.2, Figure 13): the units are cut into runs of at most
        ``chunk_size`` bytes (at least one unit each), every run is one
        seal, and since every unit is keyed by its offset the stored bytes
        are the same whatever the chunk size and thread count.
        """
        if not self.encrypted:
            return b"".join(data for data, __, ___ in units)
        runs: list[list[tuple]] = []
        size = 0
        for unit in units:
            if not runs or size + len(unit[0]) > chunk_size:
                runs.append([])
                size = 0
            runs[-1].append(unit)
            size += len(unit[0])
        return _fan_out(self._seal_run, runs, threads)

    def envelope(self, file_kind: int, version: int = ENVELOPE_VERSION) -> Envelope:
        return Envelope(
            file_kind=file_kind,
            scheme_id=self.scheme_id,
            dek_id=self.dek_id,
            nonce=self.nonce,
            version=version,
        )


class AeadFileCrypto(FileCrypto):
    """Per-file AEAD: the payload is a sequence of independently sealed units.

    Each unit is sealed under a nonce derived from the per-file base nonce
    and the unit's payload offset, so a unit cannot be relocated, swapped,
    or bit-flipped without failing its tag.  The file's one context is the
    scheme's key schedule; each unit's seal or open is the per-nonce step
    under it, whatever the file's format, so a legacy file's reader opens
    its units with ``open_unit`` too: ``open`` is the stream flavour's.
    """

    def __init__(self, scheme_id: int, dek_id: str, key: bytes, nonce: bytes):
        super().__init__(scheme_id, dek_id, key, nonce)
        self.tag_size = spec_for(scheme_id).tag_size

    def _new_context(self):
        return create_aead_schedule(self.scheme_id, self._key, self.nonce)

    def seal_unit(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        return self._file_context().seal(derive_nonce(self.nonce, offset), data, aad)

    def open_unit(self, data: bytes, offset: int, aad: bytes = b"") -> bytes:
        """Authenticate, then decrypt: ``AuthenticationError`` on any flipped
        bit, relocated unit or wrong ``aad``."""
        return self._file_context().open(derive_nonce(self.nonce, offset), data, aad)

    def open_units(self, raw: bytes, offset: int, sizes: list[int]) -> list[bytes]:
        units = split_units(raw, offset, sizes)
        return [self.open_unit(data, at) for data, at in units]

    def _seal_run(self, run: list[tuple]) -> bytes:
        return b"".join([self.seal_unit(*unit) for unit in run])

    def seal_units(self, units: list[tuple], chunk_size: int, threads: int) -> bytes:
        self._file_context()  # built before any thread can race to build it
        return super().seal_units(units, chunk_size, threads)


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
