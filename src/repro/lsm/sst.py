"""Sorted String Table files: builder and reader.

Payload layout (everything after the plaintext envelope, and everything
that gets encrypted)::

    data blocks ...   flag u8 | entries | offset u32 per entry | count u32
                      (``lsm/block.py``; the flag's bit 1 marks the offsets)
    bloom filter block
    index block       count varint, then per block:
                      last_key lp | offset varint | size varint | crc fixed32
    properties block  count varint, then (key lp, value lp) pairs
    footer (56 bytes) index_off f64 | index_sz f64 | bloom_off f64 |
                      bloom_sz f64 | props_off f64 | props_sz f64 | magic f64

Every unit above is sealed on its own by the file's ``FileCrypto`` and is
``tag_size`` bytes longer on disk; offsets and sizes in the index and the
footer are payload-relative and refer to the *stored* units, so opening any
block needs only the envelope's nonce and the block's position.

Format v3 (envelope version 2, what the builder writes) keys every unit's
stream on its own offset, so a block read squeezes exactly its own length,
and ends each of the four metadata units in a masked CRC-32 of its body
(sizes in the footer count it): with the data blocks' CRCs in the index,
every unit is checked under every scheme, tag or no tag.  Formats v1 (a
stream cipher: the payload is the plaintext layout XORed with one
file-offset keystream) and v2 (v1 under an AEAD) have no trailers; the
reader still opens them, and compaction rewrites them as v3.

Every data block the builder writes ends in the offset of each of its
entries, inside the sealed unit and under the index CRC, so a point read
that misses the block cache slices the keys at the offsets instead of
decoding every entry.  The format and envelope versions do not change: a
block's flag byte says whether it has the offsets, and a block without
them (any v1/v2 file, and v3 files written before the offsets existed) is
walked in full.

The properties block repeats the DEK-ID (`shield.dek_id`): SST metadata is
read before data blocks, so a remote server doing offloaded compaction
learns which DEK to request before touching any data (Section 5.4).
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.crypto.cipher import spec_for
from repro.env.base import Env
from repro.errors import AuthenticationError, CorruptionError, InvalidArgumentError
from repro.lsm.block import (
    Block,
    Entry,
    RawEntry,
    encode_entry,
    parse_block,
    stored_raw_entries,
    wrap_block,
)
from repro.lsm.bloom import BloomFilter
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE
from repro.lsm.envelope import (
    ENVELOPE_VERSION_UNITS,
    FILE_KIND_SST,
    MAX_ENVELOPE_SIZE,
    Envelope,
    decode_envelope,
)
from repro.lsm.filecrypto import CryptoProvider, FileCrypto, split_units
from repro.lsm.options import Options
from repro.obs.trace import TRACER
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    decode_length_prefixed,
    decode_varint64,
    encode_fixed32,
    encode_fixed64,
    encode_length_prefixed,
    encode_varint64,
)
from repro.util.lru import LRUCache

FOOTER_SIZE = 56
SST_MAGIC = 0x5354_4C44_4549_4853  # "SHIELDLS" as little-endian-ish tag
#: Written, and expected, when the file's units carry a tag (AEAD schemes):
#: the footer's and the index's offsets/sizes then count every unit's tag.
SST_MAGIC_V2 = 0x5354_4C44_4549_4832  # "2HIELDLS"

#: Role AADs binding each metadata unit to its purpose (defense in depth on
#: top of the offset-derived nonces that already pin every unit in place).
_AAD_BLOOM = b"sst-bloom"
_AAD_INDEX = b"sst-index"
_AAD_PROPS = b"sst-props"
_AAD_FOOTER = b"sst-footer"
#: Format v3's trailer on every metadata unit: a masked CRC-32 of its body.
CRC_SIZE = 4


def _with_crc(body: bytes) -> bytes:
    return body + encode_fixed32(masked_crc32(body))


def sst_format(envelope: Envelope) -> str:
    """The SST format an envelope announces: ``v1``, ``v2`` or ``v3``."""
    if envelope.version == ENVELOPE_VERSION_UNITS:
        return "v3"
    return "v2" if envelope.encrypted and spec_for(envelope.scheme_id).aead else "v1"


@dataclass
class SSTFileInfo:
    """Everything the version set needs to know about a finished SST file."""

    path: str
    file_size: int
    num_entries: int
    smallest_key: bytes
    largest_key: bytes
    smallest_seq: int
    largest_seq: int
    dek_id: str


class SSTBuilder:
    """Builds one SST file from entries added in internal-key order."""

    def __init__(self, env: Env, path: str, crypto: FileCrypto, options: Options):
        self._env = env
        self.path = path
        self._crypto = crypto
        self._options = options
        self._blocks: list[bytes] = []
        self._index: list[tuple[bytes, int, int, int]] = []  # key, off, sz, crc
        self._current = bytearray()
        self._starts = array("I")  # where each entry of ``_current`` starts
        self._payload_bytes = 0
        self._keys: list[bytes] = []
        self._smallest_key: bytes | None = None
        self._largest_key: bytes | None = None
        self._last_seq = 0
        self._smallest_seq = MAX_SEQUENCE
        self._largest_seq = 0
        self.num_entries = 0
        self._finished = False

    def add(self, key: bytes, seq: int, vtype: int, value: bytes) -> None:
        self.add_encoded(key, seq, encode_entry(key, seq, vtype, value))

    def add_encoded(self, key: bytes, seq: int, encoded: bytes) -> None:
        """Append an entry already in block encoding (``encode_entry``).

        ``encoded`` must be the encoding of an entry with this key and
        sequence number; compaction passes the bytes of a verified input
        block straight through.  Ordering is enforced here as in ``add``.
        """
        if self.num_entries:
            last_key = self._largest_key
            if key > last_key:
                self._keys.append(key)
            elif key < last_key or seq >= self._last_seq:
                raise InvalidArgumentError("SST entries must be added in order")
        else:
            self._smallest_key = key
            self._keys.append(key)
        self._largest_key = key
        self._last_seq = seq
        if seq < self._smallest_seq:
            self._smallest_seq = seq
        if seq > self._largest_seq:
            self._largest_seq = seq
        self.num_entries += 1
        current = self._current
        self._starts.append(len(current))
        current += encoded
        if len(current) >= self._options.block_size:
            self._finish_block()

    def _finish_block(self) -> None:
        if not self._current:
            return
        block = wrap_block(
            bytes(self._current), self._options.compression, self._starts
        )
        self._current.clear()
        del self._starts[:]
        self._index.append(
            (self._largest_key, self._payload_bytes, len(block),
             masked_crc32(block))
        )
        self._blocks.append(block)
        self._payload_bytes += len(block)

    def estimated_size(self) -> int:
        return self._payload_bytes + len(self._current)

    @property
    def data_blocks(self) -> list[bytes]:
        """The finished data blocks, in index order, as they were before
        sealing: what a flush hands the file's reader (``SSTReader.adopt``)."""
        return self._blocks

    @staticmethod
    def _encode_index_block(index: list[tuple[bytes, int, int, int]]) -> bytes:
        index_parts = [encode_varint64(len(index))]
        for last_key, offset, size, crc in index:
            index_parts.append(encode_length_prefixed(last_key))
            index_parts.append(encode_varint64(offset))
            index_parts.append(encode_varint64(size))
            index_parts.append(encode_fixed32(crc))
        return b"".join(index_parts)

    def _encode_props_block(self) -> bytes:
        properties = {
            "num_entries": str(self.num_entries),
            "smallest_key": self._smallest_key.hex(),
            "largest_key": self._largest_key.hex(),
            "compression": self._options.compression,
            "shield.dek_id": self._crypto.dek_id,
            "shield.scheme_id": str(self._crypto.scheme_id),
        }
        props_parts = [encode_varint64(len(properties))]
        for prop_key in sorted(properties):
            props_parts.append(encode_length_prefixed(prop_key.encode()))
            props_parts.append(encode_length_prefixed(properties[prop_key].encode()))
        return b"".join(props_parts)

    def _assemble(self, bloom_block: bytes, props_block: bytes) -> bytes:
        """Lay out and seal every unit; returns the stored payload.

        Sealing is length-preserving plus a fixed tag per unit, so every
        stored offset is computable before any sealing happens and units
        seal in parallel.  The index and footer record *stored*
        offsets/sizes.  Every unit carries a CRC of its plaintext: a data
        block's in the index, a metadata unit's as its trailer.  It is
        checked after ``open``; where there is a tag, the tag is the
        integrity boundary and the CRC a cheap decode sanity check.
        """
        tag = self._crypto.tag_size
        index: list[tuple[bytes, int, int, int]] = []
        offset = 0
        for last_key, _, size, crc in self._index:
            index.append((last_key, offset, size + tag, crc))
            offset += size + tag
        bloom_offset = offset
        bloom_block = _with_crc(bloom_block)
        index_block = _with_crc(self._encode_index_block(index))
        props_block = _with_crc(props_block)
        index_offset = bloom_offset + len(bloom_block) + tag
        props_offset = index_offset + len(index_block) + tag
        footer_offset = props_offset + len(props_block) + tag
        footer = _with_crc(b"".join(map(encode_fixed64, (
            index_offset, len(index_block) + tag,
            bloom_offset, len(bloom_block) + tag,
            props_offset, len(props_block) + tag,
            SST_MAGIC_V2 if tag else SST_MAGIC,
        ))))
        units = [
            (block, entry[1], b"") for entry, block in zip(index, self._blocks)
        ]
        units.append((bloom_block, bloom_offset, _AAD_BLOOM))
        units.append((index_block, index_offset, _AAD_INDEX))
        units.append((props_block, props_offset, _AAD_PROPS))
        units.append((footer, footer_offset, _AAD_FOOTER))
        return self._crypto.seal_units(
            units,
            self._options.encryption_chunk_size,
            self._options.encryption_threads,
        )

    def finish(self) -> SSTFileInfo:
        """Assemble, encrypt, and persist the file; return its metadata."""
        if self._finished:
            raise InvalidArgumentError("SSTBuilder.finish called twice")
        if self.num_entries == 0:
            raise InvalidArgumentError("cannot finish an empty SST file")
        self._finished = True
        self._finish_block()

        bloom = BloomFilter.build(self._keys)
        bloom_block = bloom.encode()
        props_block = self._encode_props_block()

        encrypted = self._assemble(bloom_block, props_block)
        header = self._crypto.envelope(FILE_KIND_SST, ENVELOPE_VERSION_UNITS).encode()
        with self._env.new_writable_file(self.path) as handle:
            handle.append(header)
            handle.append(encrypted)
            handle.sync()
        return SSTFileInfo(
            path=self.path,
            file_size=len(header) + len(encrypted),
            num_entries=self.num_entries,
            smallest_key=self._smallest_key,
            largest_key=self._largest_key,
            smallest_seq=self._smallest_seq,
            largest_seq=self._largest_seq,
            dek_id=self._crypto.dek_id,
        )


class SSTReader:
    """Random-access reads over one SST file (bloom + index + block cache).

    ``dek_id``, when given, is the DEK-ID the MANIFEST names for the file:
    an envelope naming another is refused before the provider resolves it,
    so a retired file put under a live name is tampering, never a KDS
    lookup of a DEK that is gone.
    """

    def __init__(
        self,
        env: Env,
        path: str,
        provider: CryptoProvider,
        options: Options,
        block_cache: LRUCache | None = None,
        dek_id: str | None = None,
    ):
        self.path = path
        self._options = options
        self._cache = block_cache
        self._file = env.new_random_access_file(path)
        self.file_size = file_size = self._file.size()

        head = self._file.read(0, min(MAX_ENVELOPE_SIZE, file_size))
        self.envelope = decode_envelope(head)
        if dek_id is not None and self.envelope.dek_id != dek_id:
            self._file.close()
            error = AuthenticationError(
                f"{path}: sealed under DEK {self.envelope.dek_id!r}, "
                f"not the MANIFEST's {dek_id!r}"
            )
            error.sst_path = path
            raise error
        self._crypto = crypto = provider.for_existing_file(self.envelope, path)
        # Format v3 opens every unit on its own and checks metadata trailers;
        # v1/v2 have no trailers, and under a stream cipher open through the
        # file-offset stream (an AEAD file was always one unit at a time).
        v3 = self.envelope.version == ENVELOPE_VERSION_UNITS
        units = v3 or crypto.tag_size
        self._open = crypto.open_unit if units else crypto.open
        self._open_units = crypto.open_units if units else self._open_each
        self._trailer = CRC_SIZE if v3 else 0
        self._payload_base = self.envelope.header_size
        payload_size = file_size - self._payload_base
        footer_len = FOOTER_SIZE + self._trailer + crypto.tag_size
        if payload_size < footer_len:
            raise CorruptionError(f"{path}: file too small for an SST footer")

        footer_offset = payload_size - footer_len
        footer = self._read_meta(footer_offset, footer_len, _AAD_FOOTER)
        index_offset, pos = decode_fixed64(footer, 0)
        index_size, pos = decode_fixed64(footer, pos)
        bloom_offset, pos = decode_fixed64(footer, pos)
        bloom_size, pos = decode_fixed64(footer, pos)
        props_offset, pos = decode_fixed64(footer, pos)
        props_size, pos = decode_fixed64(footer, pos)
        magic, pos = decode_fixed64(footer, pos)
        if magic != (SST_MAGIC_V2 if self._crypto.tag_size else SST_MAGIC):
            raise CorruptionError(f"{path}: bad SST magic (wrong key or corrupt)")

        self._index = self._parse_index(
            self._read_meta(index_offset, index_size, _AAD_INDEX)
        )
        self._index_keys = [entry[0] for entry in self._index]
        self.bloom = BloomFilter.decode(
            self._read_meta(bloom_offset, bloom_size, _AAD_BLOOM)
        )
        self.properties = self._parse_props(
            self._read_meta(props_offset, props_size, _AAD_PROPS)
        )
        try:
            self.num_entries = int(self.properties.get("num_entries", "0"))
        except ValueError as exc:
            raise CorruptionError(f"{path}: corrupt num_entries property: {exc}")

    def _read_payload(
        self, offset: int, length: int, aad: bytes = b"",
        sizes: list[int] | None = None,
    ):
        """Read and open the unit at ``offset`` -- or, given ``sizes``, the
        back-to-back run of units there, returned as a list."""
        raw = self._file.read(self._payload_base + offset, length)
        if len(raw) != length:
            got = len(raw)
            for size in sizes or ():  # name the unit the read ran out in
                if got < size:
                    break
                got -= size
                offset += size
            raise CorruptionError(f"{self.path}: short read at {offset}")
        try:
            if sizes is None:
                return self._open(raw, offset, aad)
            return self._open_units(raw, offset, sizes)
        except AuthenticationError as exc:
            exc.sst_path = self.path  # every SST tag is checked here, only here
            raise

    def _open_each(self, raw: bytes, offset: int, sizes: list[int]) -> list[bytes]:
        """Formats v1/v2 under a stream cipher: each unit of a run opened by
        its file offset."""
        return [self._open(data, at) for data, at in split_units(raw, offset, sizes)]

    def _read_meta(self, offset: int, length: int, aad: bytes) -> bytes:
        """Read and open one metadata unit; in format v3, check its CRC
        trailer before anything parses it, and strip it."""
        unit = self._read_payload(offset, length, aad)
        if not self._trailer:
            return unit
        body = unit[:-CRC_SIZE]
        if masked_crc32(body) != decode_fixed32(unit, len(body))[0]:
            raise CorruptionError(
                f"{self.path}: {aad.decode()} checksum mismatch at {offset}"
            )
        return body

    def _parse_index(self, buf: bytes) -> list[tuple[bytes, int, int, int]]:
        try:
            count, offset = decode_varint64(buf, 0)
            index = []
            for _ in range(count):
                last_key, offset = decode_length_prefixed(buf, offset)
                block_offset, offset = decode_varint64(buf, offset)
                block_size, offset = decode_varint64(buf, offset)
                crc, offset = decode_fixed32(buf, offset)
                index.append((last_key, block_offset, block_size, crc))
            return index
        except CorruptionError:
            raise
        except Exception as exc:  # noqa: BLE001 - any parse slip is corruption
            raise CorruptionError(f"{self.path}: corrupt index block: {exc}")

    def _parse_props(self, buf: bytes) -> dict[str, str]:
        try:
            count, offset = decode_varint64(buf, 0)
            props = {}
            for _ in range(count):
                key, offset = decode_length_prefixed(buf, offset)
                value, offset = decode_length_prefixed(buf, offset)
                props[key.decode()] = value.decode()
            return props
        except CorruptionError:
            raise
        except Exception as exc:  # noqa: BLE001 - any parse slip is corruption
            raise CorruptionError(f"{self.path}: corrupt properties block: {exc}")

    @property
    def dek_id(self) -> str:
        return self.envelope.dek_id

    def _check_block(self, raw: bytes, offset: int, crc: int) -> bytes:
        if masked_crc32(raw) != crc:
            raise CorruptionError(f"{self.path}: block checksum mismatch at {offset}")
        return raw

    def _read_block(self, block_index: int) -> Block:
        """Read, authenticate/verify and parse one data block (no cache)."""
        __, offset, size, crc = self._index[block_index]
        return parse_block(
            self._check_block(self._read_payload(offset, size), offset, crc)
        )

    def _load_block(self, block_index: int) -> Block:
        if self._cache is None:
            return self._read_block(block_index)
        __, offset, size, ___ = self._index[block_index]
        cache_key = (self.path, offset)
        span = TRACER.current()
        block = self._cache.get(cache_key)
        if block is not None:
            if span is not None:
                span.incr("block_cache_hits")
            return block
        if span is not None:
            span.incr("block_cache_misses")
        block = self._read_block(block_index)
        self._cache.put(cache_key, block, charge=size)
        return block

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        """Point lookup: (vtype, value) of the newest visible version, or None."""
        if not self.bloom.may_contain(key):
            return None
        index_keys = self._index_keys
        block_index = bisect.bisect_left(index_keys, key)
        while block_index < len(index_keys):
            result = self._load_block(block_index).get(key, max_seq)
            # A block ending in ``key`` may hold only versions newer than
            # ``max_seq``; the older ones continue in the next block.
            if result is not None or index_keys[block_index] != key:
                return result
            block_index += 1
        return None

    def entries(self) -> Iterator[Entry]:
        """Every entry in order (full scans, tools)."""
        return self.entries_from(None)

    def entries_from(self, start_key: bytes | None) -> Iterator[Entry]:
        """Entries with key >= start_key (range scans).  A block loads only
        when the cursor reaches it, and each entry crosses one generator
        frame, the block's: the chain hands the blocks' own iterators on."""
        first = 0
        if start_key is not None:
            first = bisect.bisect_left(self._index_keys, start_key)
        return chain.from_iterable(
            # Only the first block can hold keys below ``start_key``.
            self._load_block(index).entries(start_key if index == first else None)
            for index in range(first, len(self._index))
        )

    def raw_entries(self) -> Iterator[RawEntry]:
        """Yield every entry as (key, MAX_SEQUENCE - seq, vtype, encoded).

        Compaction's input stream.  It bypasses the block cache in both
        directions: a bulk rewrite of a file about to be deleted must not
        push the foreground's working set out.  Consecutive blocks are read
        and opened in runs of at most ``encryption_chunk_size`` stored bytes
        (Section 5.2's chunk: the write side's unit is the read side's), at
        least one block each, with every check still made per block.
        """
        index = self._index
        limit = self._options.encryption_chunk_size
        first = 0
        while first < len(index):
            __, start, size, ___ = index[first]
            end = start + size
            last = first + 1
            while (
                last < len(index) and index[last][1] == end
                and end + index[last][2] - start <= limit
            ):
                end += index[last][2]
                last += 1
            run = index[first:last]
            units = self._read_payload(
                start, end - start, sizes=[entry[2] for entry in run]
            )
            for (__, offset, ___, crc), raw in zip(run, units):
                yield from stored_raw_entries(self._check_block(raw, offset, crc))
            first = last

    def adopt(self, blocks: list[bytes]) -> int:
        """Put ``blocks`` -- this file's data blocks as its builder held them
        before sealing (``SSTBuilder.data_blocks``) -- in the block cache as
        misses would have: parsed, under the same key, charged the same
        stored size.  Each must match its index CRC; its tag is checked the
        next time it is read from storage.  Returns how many were cached."""
        if self._cache is None:
            return 0
        if len(blocks) != len(self._index):
            raise InvalidArgumentError(
                f"{self.path}: {len(blocks)} blocks for {len(self._index)} index entries"
            )
        for (__, offset, size, crc), block in zip(self._index, blocks):
            self._cache.put(
                (self.path, offset),
                parse_block(self._check_block(block, offset, crc)), charge=size,
            )
        return len(blocks)

    def purge_cached_blocks(self) -> None:
        """Drop this file's blocks from the block cache (the file is dead)."""
        if self._cache is not None:
            for __, offset, ___, ____ in self._index:
                self._cache.remove((self.path, offset))

    def close(self) -> None:
        self._file.close()


#: () -> (file number, builder for that file), called once per output.
OutputOpener = Callable[[], tuple[int, SSTBuilder]]


def merge_tables(
    sources: list[Iterable[RawEntry]],
    open_output: OutputOpener,
    keep_tombstones: bool,
    split_size: int | None,
) -> list[tuple[int, SSTFileInfo]]:
    """Merge raw-entry streams into fresh SSTs: the one compaction loop.

    Keeps the newest version of each key, drops it when it is a tombstone
    unless ``keep_tombstones`` (a non-bottommost output must keep shadowing
    older versions below it), and forwards each survivor's encoded bytes
    unchanged -- sequence numbers and types survive compaction, so there
    is nothing to re-encode.  Outputs roll over at ``split_size`` bytes
    (None: a single output).  Returns (file number, info) per output.
    """
    outputs: list[tuple[int, SSTFileInfo]] = []
    builder: SSTBuilder | None = None
    number = 0
    previous_key = None
    for key, inverted_seq, vtype, encoded in heapq.merge(*sources):
        if key == previous_key:
            continue  # an older version of a key already decided
        previous_key = key
        if vtype == TYPE_DELETE and not keep_tombstones:
            continue
        if builder is None:
            number, builder = open_output()
        builder.add_encoded(key, MAX_SEQUENCE - inverted_seq, encoded)
        if split_size is not None and builder.estimated_size() >= split_size:
            outputs.append((number, builder.finish()))
            builder = None
    if builder is not None:
        outputs.append((number, builder.finish()))
    return outputs
