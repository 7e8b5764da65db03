"""SST data-block encoding and the parsed-block representation.

A block is a run of internal entries sorted by (user_key asc, seq desc)::

    entry: key lp | seq varint | vtype u8 | value lp

Block integrity is covered by a masked CRC stored in the *index* entry that
points at the block, so blocks themselves carry no trailer.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.dbformat import MAX_SEQUENCE
from repro.util.coding import decode_varint64, encode_varint64

Entry = tuple[bytes, int, int, bytes]  # (key, seq, vtype, value)
#: (key, MAX_SEQUENCE - seq, vtype, encoded entry): tuples that sort in
#: internal-key order as they are, carrying the entry's on-disk bytes.
RawEntry = tuple[bytes, int, int, bytes]


def encode_entry(key: bytes, seq: int, vtype: int, value: bytes) -> bytes:
    return b"".join((
        encode_varint64(len(key)), key,
        encode_varint64(seq), bytes((vtype,)),
        encode_varint64(len(value)), value,
    ))


class Block:
    """One verified, decrypted data block, parsed once.

    The constructor walks the buffer a single time and keeps the keys plus
    compact offset arrays into it; values stay inside the buffer until a
    caller asks for one.  This is what the block cache holds.
    """

    __slots__ = ("keys", "_buf", "_seqs", "_vtypes", "_value_starts", "_ends")

    def __init__(self, buf: bytes):
        keys: list[bytes] = []
        seqs = array("Q")
        vtypes = bytearray()
        value_starts = array("I")
        ends = array("I")
        pos = 0
        total = len(buf)
        try:
            while pos < total:
                key_len = buf[pos]
                if key_len < 0x80:
                    pos += 1
                else:
                    key_len, pos = decode_varint64(buf, pos)
                key_end = pos + key_len
                key = buf[pos:key_end]
                # A key cut short by the end of the buffer shows up here:
                # the sequence number's first byte is then out of range.
                seq = buf[key_end]
                pos = key_end + 1
                if seq >= 0x80:
                    # Inlined: sequence numbers outgrow one byte at once.
                    seq &= 0x7F
                    shift = 7
                    while True:
                        byte = buf[pos]
                        pos += 1
                        seq |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 49:
                            raise CorruptionError("sequence number too long")
                vtype = buf[pos]
                value_len = buf[pos + 1]
                if value_len < 0x80:
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    # Inlined: values of 128 B - 16 KiB have two-byte lengths.
                    value_len = (value_len & 0x7F) | (buf[pos + 2] << 7)
                    pos += 3
                else:
                    value_len, pos = decode_varint64(buf, pos + 1)
                value_starts.append(pos)
                pos += value_len
                if pos > total:
                    raise CorruptionError("truncated block entry")
                keys.append(key)
                seqs.append(seq)
                vtypes.append(vtype)
                ends.append(pos)
        except IndexError:
            raise CorruptionError("truncated block entry") from None
        self.keys = keys
        self._buf = buf
        self._seqs = seqs
        self._vtypes = vtypes
        self._value_starts = value_starts
        self._ends = ends

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        """Newest version of ``key`` visible at ``max_seq``.

        Returns (vtype, value) or None.  Entries are sorted (key asc, seq
        desc), so the first entry for ``key`` with seq <= max_seq wins.
        """
        keys = self.keys
        index = bisect_left(keys, key)
        count = len(keys)
        while index < count and keys[index] == key:
            if self._seqs[index] <= max_seq:
                return (
                    self._vtypes[index],
                    self._buf[self._value_starts[index]:self._ends[index]],
                )
            index += 1
        return None

    def entries(self, start_key: bytes | None = None) -> Iterator[Entry]:
        """Yield (key, seq, vtype, value) for keys >= ``start_key``.

        Lazy: a value is sliced out of the buffer only when the consumer
        reaches its entry, so a scan that stops early copies nothing more.
        """
        keys = self.keys
        buf = self._buf
        seqs = self._seqs
        vtypes = self._vtypes
        value_starts = self._value_starts
        ends = self._ends
        first = 0 if start_key is None else bisect_left(keys, start_key)
        for index in range(first, len(keys)):
            yield (
                keys[index], seqs[index], vtypes[index],
                buf[value_starts[index]:ends[index]],
            )

    def raw_entries(self) -> Iterator[RawEntry]:
        """Yield (key, MAX_SEQUENCE - seq, vtype, encoded entry).

        No value is decoded: each entry's bytes are forwarded as stored,
        ready for :meth:`SSTBuilder.add_encoded`.  The tuples order by
        internal key on their own, so ``heapq.merge`` needs no key function.
        """
        buf = self._buf
        start = 0
        for key, seq, vtype, end in zip(
            self.keys, self._seqs, self._vtypes, self._ends
        ):
            yield key, MAX_SEQUENCE - seq, vtype, buf[start:end]
            start = end


# Stored-block framing: one flag byte ahead of the (possibly compressed)
# entry bytes.  Compression happens BEFORE encryption -- ciphertext does
# not compress -- mirroring RocksDB's compress-then-encrypt pipeline.
BLOCK_RAW = 0
BLOCK_ZLIB = 1


def wrap_block(raw: bytes, compression: str) -> bytes:
    """Frame a raw entry block for storage, compressing when it helps."""
    if compression == "zlib":
        compressed = zlib.compress(raw, level=1)
        if len(compressed) < len(raw):
            return bytes([BLOCK_ZLIB]) + compressed
    return bytes([BLOCK_RAW]) + raw


def unwrap_block(stored: bytes) -> bytes:
    """Invert :func:`wrap_block`."""
    if not stored:
        raise CorruptionError("empty stored block")
    flag, body = stored[0], stored[1:]
    if flag == BLOCK_RAW:
        return body
    if flag == BLOCK_ZLIB:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise CorruptionError(f"block decompression failed: {exc}") from exc
    raise CorruptionError(f"unknown block compression flag {flag}")
