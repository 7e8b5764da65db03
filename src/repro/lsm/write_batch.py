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

from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    decode_length_prefixed,
    encode_fixed32,
    encode_fixed64,
    encode_length_prefixed,
)


class WriteBatch:
    """An ordered, atomic collection of put/delete operations."""

    def __init__(self):
        self._ops: list[tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        self._check_key(key)
        self._ops.append((TYPE_PUT, bytes(key), bytes(value)))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        self._check_key(key)
        self._ops.append((TYPE_DELETE, bytes(key), b""))
        return self

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise ValueError("keys must be non-empty bytes")

    def clear(self) -> None:
        self._ops.clear()

    def __len__(self) -> int:
        return len(self._ops)

    def byte_size(self) -> int:
        return sum(len(k) + len(v) + 1 for _, k, v in self._ops)

    def items(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield (type, key, value) in insertion order."""
        return iter(self._ops)

    def insert_into(self, mem, first_seq: int) -> int:
        """Add every operation to memtable ``mem`` at consecutive sequence
        numbers from ``first_seq``; returns the last one used."""
        for seq, (vtype, key, value) in enumerate(self._ops, first_seq):
            mem.add(seq, vtype, key, value)
        return first_seq + len(self._ops) - 1

    # -- serialization -------------------------------------------------------

    def serialize(self, sequence: int) -> bytes:
        parts = [encode_fixed64(sequence), encode_fixed32(len(self._ops))]
        for vtype, key, value in self._ops:
            parts.append(bytes([vtype]))
            parts.append(encode_length_prefixed(key))
            if vtype == TYPE_PUT:
                parts.append(encode_length_prefixed(value))
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
