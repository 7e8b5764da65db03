"""WriteBatch: an atomic group of puts/deletes, and its wire format.

The serialized form is the WAL record payload::

    sequence  fixed64   (sequence of the first operation)
    count     fixed32
    entries   repeated: type u8, key lp, [value lp if put]

Everything in a batch becomes durable (or is lost) together, which is what
lets SHIELD's WAL buffer trade persistence *window* without ever exposing a
torn record (Section 5.3).
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    decode_length_prefixed,
    encode_varint64,
)

_HEADER = struct.Struct("<QI")  # sequence fixed64, count fixed32
_ONE_PUT = struct.Struct("<QIBB")  # the header, a put's tag, a key length < 0x80
_PUT_TAG = bytes((TYPE_PUT,))
_DELETE_TAG = bytes((TYPE_DELETE,))
_VALUE_TYPES = (bytes, bytearray, memoryview)


def _checked_key(key) -> bytes:
    """A key that is not plain non-empty bytes: copied if a bytearray."""
    if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
        raise ValueError("keys must be non-empty bytes")
    return bytes(key)


def _checked_value(value) -> bytes:
    """A value that is not plain bytes: copied if bytes-like.  Anything else
    ``bytes()`` accepts -- an int, a list of ints -- would be stored as
    bytes nobody wrote."""
    if not isinstance(value, _VALUE_TYPES):
        raise TypeError(
            f"values must be bytes, bytearray or memoryview, "
            f"not {type(value).__name__}"
        )
    return bytes(value)


class WriteBatch:
    """An ordered, atomic collection of put/delete operations."""

    __slots__ = ("_ops", "_bytes")

    def __init__(self):
        self._ops: list[tuple[int, bytes, bytes]] = []
        self._bytes = 0  # byte_size(), kept as operations are added

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        if type(key) is not bytes or not key:
            key = _checked_key(key)
        if type(value) is not bytes:
            value = _checked_value(value)
        self._ops.append((TYPE_PUT, key, value))
        self._bytes += len(key) + len(value) + 1
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        if type(key) is not bytes or not key:
            key = _checked_key(key)
        self._ops.append((TYPE_DELETE, key, b""))
        self._bytes += len(key) + 1
        return self

    def clear(self) -> None:
        self._ops.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._ops)

    def byte_size(self) -> int:
        """The user bytes of the batch: each operation's key and value,
        plus one for its type."""
        return self._bytes

    def items(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield (type, key, value) in insertion order."""
        return iter(self._ops)

    def insert_into(self, mem, first_seq: int) -> int:
        """Add every operation to memtable ``mem`` at consecutive sequence
        numbers from ``first_seq``; returns the last one used."""
        add = mem.add
        for seq, (vtype, key, value) in enumerate(self._ops, first_seq):
            add(seq, vtype, key, value)
        return first_seq + len(self._ops) - 1

    # -- serialization -------------------------------------------------------

    def serialize(self, sequence: int) -> bytes:
        ops = self._ops
        if len(ops) == 1:  # DB.put's batch: one pack, one join
            vtype, key, value = ops[0]
            if vtype == TYPE_PUT and len(key) < 0x80:
                head = _ONE_PUT.pack(sequence, 1, TYPE_PUT, len(key))
                return b"".join((head, key, encode_varint64(len(value)), value))
        parts = [_HEADER.pack(sequence, len(ops))]
        for vtype, key, value in ops:
            if vtype == TYPE_PUT:
                parts += (
                    _PUT_TAG, encode_varint64(len(key)), key,
                    encode_varint64(len(value)), value,
                )
            else:
                parts += (_DELETE_TAG, encode_varint64(len(key)), key)
        return b"".join(parts)

    @staticmethod
    def deserialize(payload: bytes) -> tuple[int, "WriteBatch"]:
        """Parse a WAL payload back into (first_sequence, batch)."""
        sequence, offset = decode_fixed64(payload, 0)
        count, offset = decode_fixed32(payload, offset)
        batch = WriteBatch()
        for _ in range(count):
            if offset >= len(payload):
                raise CorruptionError("truncated write batch")
            vtype = payload[offset]
            offset += 1
            key, offset = decode_length_prefixed(payload, offset)
            if vtype == TYPE_PUT:
                value, offset = decode_length_prefixed(payload, offset)
                batch.put(key, value)
            elif vtype == TYPE_DELETE:
                batch.delete(key)
            else:
                raise CorruptionError(f"unknown value type {vtype} in batch")
        if offset != len(payload):
            raise CorruptionError("trailing bytes after write batch")
        return sequence, batch
