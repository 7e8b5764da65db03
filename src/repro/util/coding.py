"""Variable-length and fixed-length integer coding.

The formats mirror the LevelDB/RocksDB wire formats: little-endian fixed
integers and LEB128-style varints.  All decoders take ``(buf, offset)`` and
return ``(value, new_offset)`` so callers can walk a buffer without slicing.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptionError

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")


def encode_fixed32(value: int) -> bytes:
    """Encode ``value`` as 4 little-endian bytes."""
    return _FIXED32.pack(value & 0xFFFFFFFF)


def encode_fixed64(value: int) -> bytes:
    """Encode ``value`` as 8 little-endian bytes."""
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def decode_fixed32(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode 4 little-endian bytes at ``offset``; return (value, new_offset)."""
    if offset + 4 > len(buf):
        raise CorruptionError("truncated fixed32")
    return _FIXED32.unpack_from(buf, offset)[0], offset + 4


def decode_fixed64(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode 8 little-endian bytes at ``offset``; return (value, new_offset)."""
    if offset + 8 > len(buf):
        raise CorruptionError("truncated fixed64")
    return _FIXED64.unpack_from(buf, offset)[0], offset + 8


_BYTE = [bytes((value,)) for value in range(0x100)]


def encode_varint64(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint (up to 10 bytes)."""
    if 0 <= value < 0x80:
        return _BYTE[value]  # lengths and small counts: the common case
    if 0x80 <= value < 0x4000:  # a WAL record's or a 1 KiB value's length
        return _BYTE[(value & 0x7F) | 0x80] + _BYTE[value >> 7]
    if 0x4000 <= value < 0x200000:  # a long-lived connection's request id
        return bytes(
            ((value & 0x7F) | 0x80, ((value >> 7) & 0x7F) | 0x80, value >> 14)
        )
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


# 32-bit varints share the 64-bit encoder; the distinction only matters for
# the decoder's overflow check.
encode_varint32 = encode_varint64


def decode_varint64(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; return (value, new_offset)."""
    if offset < len(buf):
        byte = buf[offset]
        if byte < 0x80:
            return byte, offset + 1  # one byte: the common case
        if offset + 1 < len(buf):  # two bytes: a 1 KiB value's length
            second = buf[offset + 1]
            if second < 0x80:
                return (byte & 0x7F) | (second << 7), offset + 2
            if offset + 2 < len(buf):  # three: a long-lived connection's request id
                third = buf[offset + 2]
                if third < 0x80:
                    return (
                        (byte & 0x7F) | ((second & 0x7F) << 7) | (third << 14)
                    ), offset + 3
    result = 0
    shift = 0
    pos = offset
    while shift <= 63:
        if pos >= len(buf):
            raise CorruptionError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise CorruptionError("varint too long")


def decode_varint32(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint that must fit in 32 bits."""
    value, pos = decode_varint64(buf, offset)
    if value > 0xFFFFFFFF:
        raise CorruptionError("varint32 overflow")
    return value, pos


def encode_length_prefixed(data: bytes) -> bytes:
    """Encode ``data`` preceded by its varint length."""
    return encode_varint64(len(data)) + data


def decode_length_prefixed(buf: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a varint-length-prefixed byte string; return (data, new_offset)."""
    length, pos = decode_varint64(buf, offset)
    end = pos + length
    if end > len(buf):
        raise CorruptionError("truncated length-prefixed data")
    data = buf[pos:end]
    # A slice of bytes is already a copy; only a view or bytearray needs one.
    return (data if type(data) is bytes else bytes(data)), end
