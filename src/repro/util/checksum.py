"""Record checksums.

We use zlib's C-speed CRC-32 with RocksDB-style masking.  Masking rotates and
offsets the raw CRC so that computing the CRC of data that already embeds a
CRC does not produce degenerate values.
"""

from __future__ import annotations

import zlib

_MASK_DELTA = 0xA282EAD8


def crc32(data: bytes, seed: int = 0) -> int:
    """Raw CRC-32 of ``data`` (optionally continuing from ``seed``)."""
    return zlib.crc32(data, seed) & 0xFFFFFFFF


def mask_crc(crc: int) -> int:
    """Rotate right by 15 bits and add a delta, per the LevelDB scheme."""
    crc &= 0xFFFFFFFF
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF


def unmask_crc(masked: int) -> int:
    """Invert :func:`mask_crc`."""
    rot = (masked - _MASK_DELTA) & 0xFFFFFFFF
    return ((rot >> 17) | (rot << 15)) & 0xFFFFFFFF


def masked_crc32(data: bytes, seed: int = 0) -> int:
    """``mask_crc(crc32(data, seed))`` in one call: every block read pays it."""
    crc = zlib.crc32(data, seed)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF
