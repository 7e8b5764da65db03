"""SST data-block encoding and the parsed-block representation.

A block is a run of internal entries sorted by (user_key asc, seq desc),
followed, in the layout the builder writes, by the offset of every entry::

    entry:   key lp | seq varint | vtype u8 | value lp
    trailer: offset u32 LE (one per entry, the first 0) | count u32 LE

The trailer lets a reader slice the keys without walking the entries, so a
block cache miss decodes only the entries it is asked for (RocksDB ends its
data blocks in a restart-point array for the same reason).  Blocks written
before the trailer existed have none and are walked once, in full, when
they are parsed.  Block integrity, trailer included, is covered by a masked
CRC stored in the *index* entry that points at the block.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from bisect import bisect_left
from operator import ge
from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.dbformat import MAX_SEQUENCE
from repro.util.coding import decode_varint64, encode_fixed32, encode_varint64

Entry = tuple[bytes, int, int, bytes]  # (key, seq, vtype, value)
#: (key, MAX_SEQUENCE - seq, vtype, encoded entry): tuples that sort in
#: internal-key order as they are, carrying the entry's on-disk bytes.
RawEntry = tuple[bytes, int, int, bytes]

#: The trailer's offsets are u32 little-endian; ``array("I")`` is native.
_SWAP = sys.byteorder == "big"


def encode_entry(key: bytes, seq: int, vtype: int, value: bytes) -> bytes:
    return b"".join((
        encode_varint64(len(key)), key,
        encode_varint64(seq), bytes((vtype,)),
        encode_varint64(len(value)), value,
    ))


def encode_offsets(offsets: array) -> bytes:
    """The trailer for entries starting at ``offsets`` (an ``array("I")``)."""
    if _SWAP:
        offsets = array("I", offsets)
        offsets.byteswap()
    return offsets.tobytes() + encode_fixed32(len(offsets))


def _decode_seq(buf: bytes, pos: int) -> tuple[int, int]:
    """A sequence number of any width, at most 8 bytes (56 bits).  The
    decoders inline widths 1-3 (sequence numbers below 2^21)."""
    seq = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        seq |= (byte & 0x7F) << shift
        if byte < 0x80:
            return seq, pos
        shift += 7
        if shift > 49:
            raise CorruptionError("sequence number too long")


def _walk(buf: bytes, total: int) -> tuple[list[bytes], array]:
    """The keys of ``buf[:total]`` and where each entry starts (then where
    the last ends), by decoding every entry's lengths once.  Each entry
    must end where the next starts or at ``total``."""
    keys: list[bytes] = []
    starts = array("I")
    pos = 0
    try:
        while pos < total:
            starts.append(pos)
            key_len = buf[pos]
            if key_len < 0x80:
                pos += 1
            else:
                key_len, pos = decode_varint64(buf, pos)
            key_end = pos + key_len
            keys.append(buf[pos:key_end])
            # A key cut short by the end of the buffer shows up here: the
            # sequence number's first byte is then out of range.
            if buf[key_end] < 0x80:
                pos = key_end + 1
            elif buf[key_end + 1] < 0x80:
                pos = key_end + 2
            elif buf[key_end + 2] < 0x80:
                pos = key_end + 3
            else:
                pos = _decode_seq(buf, key_end)[1]
            value_len = buf[pos + 1]  # past the type byte
            if value_len < 0x80:
                pos += 2 + value_len
            elif buf[pos + 2] < 0x80:
                pos += 3 + ((value_len & 0x7F) | (buf[pos + 2] << 7))
            else:
                value_len, pos = decode_varint64(buf, pos + 1)
                pos += value_len
    except IndexError:
        raise CorruptionError("truncated block entry") from None
    if pos > total:
        raise CorruptionError("truncated block entry")
    starts.append(total)
    return _sorted(keys), starts


def _read_offsets(buf: bytes) -> list[int]:
    """Where each entry of a block with an offset trailer starts, then
    where the entries end (the trailer starts).

    The trailer is checked before anything indexes through it: the count
    fits, the first offset is 0 and the offsets strictly increase up to
    the trailer.
    """
    size = len(buf) - 4
    count = int.from_bytes(buf[size:], "little") if size >= 0 else -1
    end = size - 4 * count
    if count < 0 or end < 0:
        raise CorruptionError("block offset count runs past the block")
    offsets = array("I", buf[end:size])
    if _SWAP:
        offsets.byteswap()
    starts = offsets.tolist()
    starts.append(end)
    if starts[0] or any(map(ge, starts, starts[1:])):
        raise CorruptionError("block offsets out of order")
    return starts


def _sorted(keys: list[bytes]) -> list[bytes]:
    """``keys``, which must sort, or bisecting them could not find what
    the block holds."""
    if keys != sorted(keys):
        raise CorruptionError("block keys out of order")
    return keys


def _slice_keys(buf: bytes, starts: list[int]) -> list[bytes]:
    """The key of every entry of a block with an offset trailer."""
    starts = starts[:-1]
    keys = [buf[start + 1:start + 1 + buf[start]] for start in starts]
    if keys and max(map(len, keys)) >= 0x80:
        # A key of 128 bytes or more has a length of two bytes or more,
        # whose first byte, read as one, slices at least 128 bytes above.
        keys = []
        for start in starts:
            key_len, pos = decode_varint64(buf, start)
            keys.append(buf[pos:pos + key_len])
    return _sorted(keys)


def _raw_entries(buf: bytes, starts: list[int] | array) -> Iterator[RawEntry]:
    """Yield (key, MAX_SEQUENCE - seq, vtype, encoded entry) per entry.

    One pass: each entry's key is sliced here and its bytes are forwarded
    as stored, once its lengths are checked against its bounds.
    """
    try:
        for start, end in zip(starts, starts[1:]):
            key_len = buf[start]
            if key_len < 0x80:
                pos = start + 1
            else:
                key_len, pos = decode_varint64(buf, start)
            key = buf[pos:pos + key_len]
            pos += key_len
            seq = buf[pos]
            if seq < 0x80:
                pos += 1
            elif buf[pos + 1] < 0x80:
                seq = seq & 0x7F | buf[pos + 1] << 7
                pos += 2
            elif buf[pos + 2] < 0x80:
                seq = seq & 0x7F | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
                pos += 3
            else:
                seq, pos = _decode_seq(buf, pos)
            vtype = buf[pos]
            value_len = buf[pos + 1]
            if value_len < 0x80:
                pos += 2
            elif buf[pos + 2] < 0x80:
                value_len = (value_len & 0x7F) | (buf[pos + 2] << 7)
                pos += 3
            else:
                value_len, pos = decode_varint64(buf, pos + 1)
            if pos + value_len != end:
                raise CorruptionError("block entry does not end at the next")
            yield key, MAX_SEQUENCE - seq, vtype, buf[start:end]
    except IndexError:
        raise CorruptionError("truncated block entry") from None


class Block:
    """One verified, decrypted data block, parsed once.

    The constructor keeps the keys and where each entry starts, read from
    the block's offset trailer (``indexed``) or, for a block written
    without one, found by walking it.  Sequence numbers, types and values
    stay inside the buffer until a caller reaches their entry, and every
    entry decoded must end exactly where the next one starts.  This is
    what the block cache holds.

    A walk from the first entry checks each offset as it goes, a found key
    checks its own entry, and a scan from a key checks the entry before its
    first.  A get that finds nothing rests on a key *not* being in the
    list: it first checks every offset against a walk of the entries, once
    a block.
    """

    __slots__ = ("keys", "_buf", "_starts", "_walked")

    def __init__(self, buf: bytes, indexed: bool = False):
        if indexed:
            starts = _read_offsets(buf)
            self.keys = _slice_keys(buf, starts)
            self._starts = array("I", starts)
        else:
            self.keys, self._starts = _walk(buf, len(buf))
        self._buf = buf
        self._walked = not indexed

    def _walk_once(self) -> None:
        """Check a trailer's offsets against a walk of the entries: the
        trailer must hold exactly the offsets the walk finds."""
        if not self._walked:
            buf = self._buf
            end = self._starts[-1]
            if encode_offsets(_walk(buf, end)[1][:-1]) != buf[end:]:
                raise CorruptionError("block offsets do not match its entries")
            self._walked = True

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        """Newest version of ``key`` visible at ``max_seq``.

        Returns (vtype, value) or None.  Entries are sorted (key asc, seq
        desc), so the first entry for ``key`` with seq <= max_seq wins;
        only the entries of ``key`` are decoded.
        """
        keys = self.keys
        index = bisect_left(keys, key)
        count = len(keys)
        buf = self._buf
        starts = self._starts
        while index < count and keys[index] == key:
            pos = starts[index]
            index += 1
            try:
                key_len = buf[pos]
                if key_len < 0x80:
                    pos += 1 + key_len
                else:
                    key_len, pos = decode_varint64(buf, pos)
                    pos += key_len
                seq = buf[pos]
                if seq < 0x80:
                    pos += 1
                elif buf[pos + 1] < 0x80:
                    seq = seq & 0x7F | buf[pos + 1] << 7
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    seq = seq & 0x7F | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
                    pos += 3
                else:
                    seq, pos = _decode_seq(buf, pos)
                if seq > max_seq:
                    continue
                vtype = buf[pos]
                value_len = buf[pos + 1]
                if value_len < 0x80:
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    value_len = (value_len & 0x7F) | (buf[pos + 2] << 7)
                    pos += 3
                else:
                    value_len, pos = decode_varint64(buf, pos + 1)
            except IndexError:
                raise CorruptionError("truncated block entry") from None
            end = starts[index]
            if pos + value_len != end:
                raise CorruptionError("block entry does not end at the next")
            return vtype, buf[pos:end]
        self._walk_once()
        return None

    def entries(self, start_key: bytes | None = None) -> Iterator[Entry]:
        """Yield (key, seq, vtype, value) for keys >= ``start_key``.

        Lazy: an entry is decoded only when the consumer reaches it, so a
        scan that stops early decodes nothing more.  A scan from a key
        starts one entry early: the entry before the first one yielded must
        end where that one starts.
        """
        keys = self.keys
        buf = self._buf
        starts = self._starts
        first = 0 if start_key is None else bisect_left(keys, start_key)
        try:
            for index in range(max(first - 1, 0), len(keys)):
                pos = starts[index]
                key_len = buf[pos]
                if key_len < 0x80:
                    pos += 1 + key_len
                else:
                    key_len, pos = decode_varint64(buf, pos)
                    pos += key_len
                seq = buf[pos]
                if seq < 0x80:
                    pos += 1
                elif buf[pos + 1] < 0x80:
                    seq = seq & 0x7F | buf[pos + 1] << 7
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    seq = seq & 0x7F | (buf[pos + 1] & 0x7F) << 7 | buf[pos + 2] << 14
                    pos += 3
                else:
                    seq, pos = _decode_seq(buf, pos)
                vtype = buf[pos]
                value_len = buf[pos + 1]
                if value_len < 0x80:
                    pos += 2
                elif buf[pos + 2] < 0x80:
                    value_len = (value_len & 0x7F) | (buf[pos + 2] << 7)
                    pos += 3
                else:
                    value_len, pos = decode_varint64(buf, pos + 1)
                end = starts[index + 1]
                if pos + value_len != end:
                    raise CorruptionError("block entry does not end at the next")
                if index >= first:
                    yield keys[index], seq, vtype, buf[pos:end]
        except IndexError:
            raise CorruptionError("truncated block entry") from None

    def raw_entries(self) -> Iterator[RawEntry]:
        """Yield (key, MAX_SEQUENCE - seq, vtype, encoded entry).

        No value is copied: each entry's bytes are forwarded as stored,
        ready for :meth:`SSTBuilder.add_encoded`.  The tuples order by
        internal key on their own, so ``heapq.merge`` needs no key function.
        """
        return _raw_entries(self._buf, self._starts)


# Stored-block framing: one flag byte ahead of the (possibly compressed)
# block bytes.  Compression happens BEFORE encryption -- ciphertext does
# not compress -- mirroring RocksDB's compress-then-encrypt pipeline.
BLOCK_RAW = 0
BLOCK_ZLIB = 1
#: Flag bit: the block ends in an offset trailer (compressed with it).
BLOCK_OFFSETS = 2


def wrap_block(raw: bytes, compression: str, offsets: array | None = None) -> bytes:
    """Frame a raw entry block for storage, compressing when it helps;
    with ``offsets`` (where each entry starts), append the trailer."""
    flag = BLOCK_RAW
    if offsets is not None:
        raw += encode_offsets(offsets)
        flag = BLOCK_OFFSETS
    if compression == "zlib":
        compressed = zlib.compress(raw, level=1)
        if len(compressed) < len(raw):
            return bytes([flag | BLOCK_ZLIB]) + compressed
    return bytes([flag]) + raw


def unwrap_block(stored: bytes) -> bytes:
    """Invert :func:`wrap_block`: the block bytes, trailer included."""
    if not stored:
        raise CorruptionError("empty stored block")
    flag, body = stored[0], stored[1:]
    if flag & ~BLOCK_OFFSETS == BLOCK_RAW:
        return body
    if flag & ~BLOCK_OFFSETS == BLOCK_ZLIB:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise CorruptionError(f"block decompression failed: {exc}") from exc
    raise CorruptionError(f"unknown block compression flag {flag}")


def parse_block(stored: bytes) -> Block:
    """A stored block, unwrapped and parsed in the layout its flag names."""
    body = unwrap_block(stored)
    return Block(body, bool(stored[0] & BLOCK_OFFSETS))


def stored_raw_entries(stored: bytes) -> Iterator[RawEntry]:
    """:meth:`Block.raw_entries` of a stored block, without a ``Block``:
    compaction reads every entry once, so it needs no key list."""
    body = unwrap_block(stored)
    if stored[0] & BLOCK_OFFSETS:
        return _raw_entries(body, _read_offsets(body))
    return _raw_entries(body, _walk(body, len(body))[1])
