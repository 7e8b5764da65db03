"""Write-Ahead Log: framed, checksummed, optionally encrypted records.

Record framing (before encryption)::

    crc     fixed32   masked CRC-32 of the payload
    length  varint
    payload bytes

Two encryption granularities, selected by ``buffer_size``:

- ``buffer_size == 0``: every ``add_record`` encrypts and appends its frame
  immediately -- one cipher-context initialization per WAL write (the
  bottleneck of Table 2); a commit group's ``add_records`` is one write.
- ``buffer_size > 0``: frames accumulate in an application-managed buffer
  and are encrypted *once* per buffer flush (SHIELD's WAL optimization,
  Section 5.3).  Records still in the buffer are lost if the process
  crashes; whatever reaches storage is always encrypted and whole.

An encrypted log (envelope version 2, the MANIFEST too) stores each write
unit -- one frame or commit group unbuffered, one buffer flush buffered --
as ``sealed_len fixed32 | sealed``, keyed on the payload offset of its
sealed bytes: a stream cipher squeezes exactly the unit's length, an AEAD
derives the unit's nonce from it and appends a tag.  Replay reads the
prefix, opens the unit whole, then parses its frames.  It stops silently at
a torn (incomplete) trailing unit, as it does at a torn frame -- but a
*complete* unit whose tag fails to verify is tampering, not a crash
artifact, and raises ``AuthenticationError``.  A plaintext log is version 1:
the frames themselves.  Version 1 under a stream cipher (the frames XORed
with one keystream from payload offset 0) is what encrypted logs were
before units; replay still reads it.
"""

from __future__ import annotations

import struct

from repro.env.base import Env
from repro.errors import AuthenticationError, CorruptionError, IOError_
from repro.lsm.envelope import (
    ENVELOPE_VERSION,
    ENVELOPE_VERSION_UNITS,
    FILE_KIND_WAL,
    MAX_ENVELOPE_SIZE,
    decode_envelope,
)
from repro.lsm.filecrypto import CryptoProvider, FileCrypto
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_varint64,
    encode_fixed32,
    encode_varint64,
)


_HEAD_1 = struct.Struct("<IB")  # masked CRC, a length under 0x80
_HEAD_2 = struct.Struct("<IBB")  # masked CRC, a length under 0x4000


def frame_head(payload: bytes) -> bytes:
    """A record frame's header: the payload's masked CRC and its length."""
    length = len(payload)
    crc = masked_crc32(payload)
    if length < 0x80:
        return _HEAD_1.pack(crc, length)
    if length < 0x4000:  # a small put's record
        return _HEAD_2.pack(crc, (length & 0x7F) | 0x80, length >> 7)
    return encode_fixed32(crc) + encode_varint64(length)


def frame_records(payloads: list[bytes]) -> bytes:
    """Build the on-disk frames of ``payloads``, back to back, in one join."""
    parts = []
    for payload in payloads:
        parts += (frame_head(payload), payload)
    return b"".join(parts)


def frame_record(payload: bytes) -> bytes:
    """Build the on-disk frame for one record."""
    return frame_records((payload,))


class WALWriter:
    """Appends records to a WAL file through a FileCrypto; ``synced`` is the
    payload bytes (past the envelope) the last ``sync()`` made durable."""

    def __init__(
        self,
        env: Env,
        path: str,
        crypto: FileCrypto,
        buffer_size: int = 0,
        file_kind: int = FILE_KIND_WAL,
    ):
        self.path = path
        self.dek_id = crypto.dek_id
        self._crypto = crypto
        self.buffer_size = buffer_size
        self._file = env.new_writable_file(path)
        version = ENVELOPE_VERSION_UNITS if crypto.encrypted else ENVELOPE_VERSION
        header = crypto.envelope(file_kind, version).encode()
        self._file.append(header)
        self._payload_offset = 0          # encrypted+appended payload bytes
        self._buffer = bytearray()        # frames not yet encrypted/appended
        self.synced = 0
        self.buffer_flushes = 0
        self._closed = False

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def add_record(self, payload: bytes) -> None:
        """Append one record (possibly deferring it to the buffer)."""
        self.add_records([payload])

    def add_records(self, payloads: list[bytes]) -> None:
        """Append a commit group's records as one write: their frames go
        into the buffer together, or -- unbuffered -- into one unit, so the
        group pays one seal (one cipher-context init) instead of one per
        record.  One record is exactly what ``add_record`` writes.  Nothing
        here syncs: ``sync()`` is the one way to durability."""
        with TRACER.span("wal.append") as span:
            if self.buffer_size > 0:
                buffer = self._buffer
                mark = len(buffer)
                try:
                    for payload in payloads:
                        buffer += frame_head(payload)
                        buffer += payload
                    span.set_attribute("nbytes", len(buffer) - mark)
                    span.set_attribute("buffered", True)
                    if len(buffer) >= self.buffer_size:
                        self.flush_buffer()
                except BaseException:
                    # This write raises before the memtable gets it: none of
                    # its frames may be persisted later.  The frames before
                    # it stay.  (A write whose sync raises after this returns
                    # is in doubt instead: its frames stay buffered, and a
                    # later sync persists them.)
                    del buffer[mark:]
                    raise
            else:
                frames = frame_records(payloads)
                span.set_attribute("nbytes", len(frames))
                self._append_unit(frames)

    def _append_unit(self, chunk: bytes) -> None:
        """Persist one write unit at the current payload offset."""
        if self._crypto.encrypted:
            # Keyed on the offset of the sealed bytes, just past the prefix.
            sealed = self._crypto.seal_unit(chunk, self._payload_offset + 4)
            chunk = encode_fixed32(len(sealed)) + sealed
        self._file.append(chunk)
        self._payload_offset += len(chunk)

    def flush_buffer(self) -> None:
        """Encrypt and persist everything currently buffered (one context).

        A frame leaves the buffer only once a unit holding it is appended:
        if the append fails, the acked writes buffered so far stay for the
        next flush, so a later sync that returns still makes them durable."""
        if not self._buffer:
            return
        with TRACER.span("wal.flush_buffer") as span:
            chunk = bytes(self._buffer)
            span.set_attribute("nbytes", len(chunk))
            self._append_unit(chunk)
            self._buffer.clear()
            self.buffer_flushes += 1

    def sync(self) -> None:
        """Flush the application buffer and fsync the file."""
        with TRACER.span("wal.sync"):
            self.flush_buffer()
            self._file.sync()
            self.synced = self._payload_offset

    def close(self) -> None:
        if self._closed:
            return
        self.flush_buffer()
        self._file.close()
        self._closed = True

    def simulate_process_crash(self) -> None:
        """Drop the application buffer without persisting it (test hook)."""
        self._buffer.clear()
        self._closed = True


def read_wal_records(env: Env, path: str, provider: CryptoProvider) -> list[bytes]:
    """Every intact record payload of a WAL file.  A corrupted or truncated
    tail ends replay silently (RocksDB's tolerate-corrupted-tail-records): a
    crash mid-append must not fail recovery, it just loses the torn record."""
    return read_log(env.read_file(path), path, provider)[0]


def replay_wal(
    env: Env, path: str, provider: CryptoProvider, dek_id: str, mem
) -> tuple[int, int] | None:
    """Replay a named WAL into ``mem``: (payload bytes of the whole units
    that open and parse, last sequence or 0); None when the file is gone.
    Its envelope must name ``dek_id`` (else ``AuthenticationError``)."""
    try:
        raw = env.read_file(path)
    except IOError_:
        if env.file_exists(path):
            raise
        return None
    records, length = read_log(raw, path, provider, dek_id)
    last_sequence = 0
    for payload in records:
        first_seq, batch = WriteBatch.deserialize(payload)
        last_sequence = max(last_sequence, batch.insert_into(mem, first_seq))
    return length, last_sequence


def read_log(
    raw: bytes, path: str, provider: CryptoProvider, dek_id: str | None = None
) -> tuple[list[bytes], int]:
    """(intact records, payload bytes they span) of a log file's ``raw``
    bytes, checked before the DEK is resolved to be sealed under ``dek_id``."""
    try:
        envelope = decode_envelope(raw[:MAX_ENVELOPE_SIZE])
    except CorruptionError:
        # A system crash can truncate a WAL before even its envelope was
        # synced; an unreadable head means an empty (torn) log, not failure.
        return [], 0
    if dek_id is not None and envelope.dek_id != dek_id:
        raise AuthenticationError(
            f"{path}: sealed under DEK {envelope.dek_id!r}, "
            f"not the MANIFEST's {dek_id!r}"
        )
    crypto = provider.for_existing_file(envelope, path)
    body = bytes(raw[envelope.header_size:])
    if envelope.version == ENVELOPE_VERSION_UNITS or crypto.tag_size:
        return _replay_sealed_units(crypto, body)
    # Version 1: plaintext frames, or a legacy stream log's one keystream.
    return _parse_frames(crypto.open(body, 0))


def _parse_frames(payload: bytes) -> tuple[list[bytes], int]:
    """Parse a run of frames; returns (records, bytes of whole frames)."""
    records: list[bytes] = []
    offset = 0
    total = len(payload)
    while offset < total:
        if offset + 4 > total:
            break  # torn frame header
        expected_crc, pos = decode_fixed32(payload, offset)
        try:
            length, pos = decode_varint64(payload, pos)
        except CorruptionError:
            break
        if pos + length > total:
            break  # torn record body
        body = payload[pos:pos + length]
        if masked_crc32(body) != expected_crc:
            break  # corrupt record: stop replay here
        records.append(body)
        offset = pos + length
    return records, offset


def _replay_sealed_units(
    crypto: FileCrypto, raw_payload: bytes
) -> tuple[list[bytes], int]:
    """Replay length-prefixed sealed units: (records, bytes of whole units).

    An incomplete trailing unit is a torn write and ends replay silently,
    like a torn frame.  A *complete* unit with a bad tag cannot come from a crash
    (storage appends are all-or-nothing per unit once the length prefix is
    whole), so it propagates as ``AuthenticationError``.
    """
    records: list[bytes] = []
    offset = 0
    total = len(raw_payload)
    while offset < total:
        if offset + 4 > total:
            break  # torn length prefix
        sealed_len, pos = decode_fixed32(raw_payload, offset)
        if pos + sealed_len > total:
            break  # torn unit body
        unit = crypto.open_unit(raw_payload[pos:pos + sealed_len], pos)
        unit_records, consumed = _parse_frames(unit)
        records.extend(unit_records)
        if consumed != len(unit):
            break  # authenticated but malformed framing: stop replay
        offset = pos + sealed_len
    return records, offset
