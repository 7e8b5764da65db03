"""The plaintext file envelope: where SHIELD's DEK metadata lives.

Every persistent file (WAL, SST, MANIFEST) begins with a small plaintext
header recording which cipher scheme encrypted the payload, the public
DEK-ID, and the per-file nonce.  This is the mechanism behind
"metadata-enabled DEK sharing" (Section 5.4): any server that can read the
file can extract the DEK-ID and ask the KDS for the key -- the KDS, not the
metadata, enforces authorization.

Envelope layout (all plaintext)::

    magic      4 bytes  b"LSMF"
    version    1 byte   (the payload layout: see below)
    file_kind  1 byte   (wal / sst / manifest / other)
    scheme_id  1 byte   (0 = plaintext)
    dek_id     varint-length-prefixed bytes
    nonce      varint-length-prefixed bytes
    crc        4 bytes  masked CRC-32 of everything above

Payload byte offsets for CTR encryption are relative to the end of the
envelope, so the envelope can be rewritten (e.g. during re-encryption)
without re-encrypting the payload.

The version says how the payload is laid out; 2 is what the writers use.
1: a stream cipher's payload is one keystream addressed by file offset
(SST formats v1/v2, and WALs and MANIFESTs written before version 2); a
plaintext log is still written as version 1, its frames as they are.  2:
every unit is keyed on its own offset.  For an SST that is format v3, where
every metadata unit also ends in a CRC (``repro.lsm.sst``); for an encrypted
WAL or MANIFEST every write unit is stored as ``sealed_len fixed32 |
sealed`` (``repro.lsm.wal``), under a stream cipher or an AEAD alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_length_prefixed,
    encode_fixed32,
    encode_length_prefixed,
)

MAGIC = b"LSMF"
ENVELOPE_VERSION = 1
ENVELOPE_VERSION_UNITS = 2

FILE_KIND_WAL = 1
FILE_KIND_SST = 2
FILE_KIND_MANIFEST = 3
FILE_KIND_OTHER = 4

_KIND_NAMES = {
    FILE_KIND_WAL: "wal",
    FILE_KIND_SST: "sst",
    FILE_KIND_MANIFEST: "manifest",
    FILE_KIND_OTHER: "other",
}


def kind_name(kind: int) -> str:
    return _KIND_NAMES.get(kind, "unknown")


@dataclass(frozen=True)
class Envelope:
    """Parsed plaintext file header."""

    file_kind: int
    scheme_id: int          # 0 means unencrypted payload
    dek_id: str             # empty for unencrypted files
    nonce: bytes
    header_size: int = 0    # filled in by decode(); payload starts here
    version: int = ENVELOPE_VERSION

    @property
    def encrypted(self) -> bool:
        return self.scheme_id != 0

    def encode(self) -> bytes:
        body = (
            MAGIC
            + bytes([self.version, self.file_kind, self.scheme_id])
            + encode_length_prefixed(self.dek_id.encode())
            + encode_length_prefixed(self.nonce)
        )
        return body + encode_fixed32(masked_crc32(body))


def decode_envelope(buf: bytes) -> Envelope:
    """Parse an envelope from the head of ``buf``."""
    if len(buf) < len(MAGIC) + 3 or not buf.startswith(MAGIC):
        raise CorruptionError("missing file envelope magic")
    version = buf[4]
    if version not in (ENVELOPE_VERSION, ENVELOPE_VERSION_UNITS):
        raise CorruptionError(f"unsupported envelope version {version}")
    file_kind = buf[5]
    scheme_id = buf[6]
    offset = 7
    dek_id_raw, offset = decode_length_prefixed(buf, offset)
    nonce, offset = decode_length_prefixed(buf, offset)
    crc, end = decode_fixed32(buf, offset)
    if masked_crc32(bytes(buf[:offset])) != crc:
        raise CorruptionError("file envelope checksum mismatch")
    return Envelope(
        file_kind=file_kind,
        scheme_id=scheme_id,
        dek_id=dek_id_raw.decode(),
        nonce=nonce,
        header_size=end,
        version=version,
    )


# A generous upper bound on envelope size, used when readers fetch the head
# of a file in one I/O. 4(magic)+3 + ~2+64(dek id) + ~1+32(nonce) + 4(crc).
MAX_ENVELOPE_SIZE = 128


def envelope_dek_id(raw: bytes) -> str:
    """The DEK-ID the envelope at the head of ``raw`` names, or "" if none."""
    try:
        return decode_envelope(raw[:MAX_ENVELOPE_SIZE]).dek_id
    except CorruptionError:
        return ""
