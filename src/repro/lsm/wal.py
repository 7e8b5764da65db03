"""Write-Ahead Log: framed, checksummed, optionally encrypted records.

Record framing (before encryption)::

    crc     fixed32   masked CRC-32 of the payload
    length  varint
    payload bytes

Encryption covers the whole record stream (frames included) as one CTR
stream starting at payload offset 0, so replay decrypts sequentially.

Two encryption granularities, selected by ``buffer_size``:

- ``buffer_size == 0``: every ``add_record`` encrypts and appends its frame
  immediately -- one cipher-context initialization per WAL write (the
  bottleneck of Table 2); a commit group's ``add_records`` is one write.
- ``buffer_size > 0``: frames accumulate in an application-managed buffer
  and are encrypted *once* per buffer flush (SHIELD's WAL optimization,
  Section 5.3).  Records still in the buffer are lost if the process
  crashes; whatever reaches storage is always encrypted and whole.

Schemes whose units carry a tag (``FileCrypto.tag_size > 0``) need a second
framing: a tagged unit must be opened whole, so replay has to know where
each write unit (one frame unbuffered, one buffer flush buffered) ends
before it can read any frame inside it.  Each unit is stored as
``sealed_len fixed32 | ciphertext+tag``, with the unit's nonce derived from
its payload offset.  Replay stops silently at a torn (incomplete) trailing
unit, exactly like the stream framing's torn-tail tolerance -- but a
*complete* unit whose tag fails to verify is tampering, not a crash
artifact, and raises ``AuthenticationError``.
"""

from __future__ import annotations

from repro.env.base import Env
from repro.errors import CorruptionError
from repro.lsm.envelope import FILE_KIND_WAL, MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filecrypto import CryptoProvider, FileCrypto
from repro.lsm.filename import parse_file_name
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_varint64,
    encode_fixed32,
    encode_varint64,
)


def frame_record(payload: bytes) -> bytes:
    """Build the on-disk frame for one record."""
    return (
        encode_fixed32(masked_crc32(payload))
        + encode_varint64(len(payload))
        + payload
    )


class WALWriter:
    """Appends records to a WAL file through a FileCrypto."""

    def __init__(
        self,
        env: Env,
        path: str,
        crypto: FileCrypto,
        buffer_size: int = 0,
        sync_writes: bool = False,
        file_kind: int = FILE_KIND_WAL,
    ):
        self.path = path
        self._crypto = crypto
        self.buffer_size = buffer_size
        self.sync_writes = sync_writes
        self._file = env.new_writable_file(path)
        header = crypto.envelope(file_kind).encode()
        self._file.append(header)
        self._payload_offset = 0          # encrypted+appended payload bytes
        self._buffer = bytearray()        # frames not yet encrypted/appended
        self.records_written = 0
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
        record.  One record is exactly what ``add_record`` writes."""
        with TRACER.span("wal.append") as span:
            frames = b"".join(map(frame_record, payloads))
            span.set_attribute("nbytes", len(frames))
            self.records_written += len(payloads)
            if self.buffer_size > 0:
                self._buffer.extend(frames)
                span.set_attribute("buffered", True)
                if len(self._buffer) >= self.buffer_size:
                    self.flush_buffer()
            else:
                self._append_unit(frames)
                if self.sync_writes:
                    self._file.sync()

    def _append_unit(self, chunk: bytes) -> None:
        """Persist one write unit at the current payload offset."""
        if self._crypto.tag_size:
            # The unit's nonce derives from the offset of its ciphertext
            # (just past the fixed32 length prefix).
            sealed = self._crypto.seal(chunk, self._payload_offset + 4)
            stored = encode_fixed32(len(sealed)) + sealed
        else:
            stored = self._crypto.seal(chunk, self._payload_offset)
        self._file.append(stored)
        self._payload_offset += len(stored)

    def flush_buffer(self) -> None:
        """Encrypt and persist everything currently buffered (one context)."""
        if not self._buffer:
            return
        with TRACER.span("wal.flush_buffer") as span:
            chunk = bytes(self._buffer)
            span.set_attribute("nbytes", len(chunk))
            self._buffer.clear()
            self._append_unit(chunk)
            self.buffer_flushes += 1
            if self.sync_writes:
                self._file.sync()

    def sync(self) -> None:
        """Flush the application buffer and fsync the file."""
        with TRACER.span("wal.sync"):
            self.flush_buffer()
            self._file.sync()

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
    """Replay a WAL file, returning every intact record payload.

    A corrupted or truncated tail ends replay silently (RocksDB's
    tolerate-corrupted-tail-records behaviour): a crash mid-append must not
    fail recovery, it just loses the torn tail record.
    """
    raw = env.read_file(path)
    try:
        envelope = decode_envelope(raw[:MAX_ENVELOPE_SIZE])
    except CorruptionError:
        # A system crash can truncate a WAL before even its envelope was
        # synced; an unreadable head means an empty (torn) log, not failure.
        return []
    crypto = provider.for_existing_file(envelope, path)
    body = bytes(raw[envelope.header_size:])
    if crypto.tag_size:
        return _replay_sealed_units(crypto, body)
    records, _ = _parse_frames(crypto.open(body, 0))
    return records


def replay_wals(
    env: Env, dbname: str, provider: CryptoProvider, log_number: int, mem
) -> tuple[list[str], int]:
    """Replay every WAL of ``dbname`` numbered >= ``log_number`` into
    ``mem``, oldest first: a writer's recovery and a read-only instance's
    refresh.  Returns (paths replayed, last sequence seen or 0)."""
    wals = []
    for name in env.list_dir(dbname):
        parsed = parse_file_name(name)
        if parsed and parsed[0] == "wal" and parsed[1] >= log_number:
            wals.append((parsed[1], f"{dbname}/{name}"))
    wals.sort()
    last_sequence = 0
    for __, path in wals:
        for payload in read_wal_records(env, path, provider):
            first_seq, batch = WriteBatch.deserialize(payload)
            last_sequence = max(last_sequence, batch.insert_into(mem, first_seq))
    return [path for __, path in wals], last_sequence


def _parse_frames(payload: bytes) -> tuple[list[bytes], bool]:
    """Parse a run of frames; returns (records, whole payload consumed)."""
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
    return records, offset == total


def _replay_sealed_units(crypto: FileCrypto, raw_payload: bytes) -> list[bytes]:
    """Replay length-prefixed sealed units.

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
        unit = crypto.open(raw_payload[pos:pos + sealed_len], pos)
        unit_records, consumed = _parse_frames(unit)
        records.extend(unit_records)
        if not consumed:
            break  # authenticated but malformed framing: stop replay
        offset = pos + sealed_len
    return records
