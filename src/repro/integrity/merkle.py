"""Merkle root over the live file set: the freshness anchor.

The root commits to *which* files the store consists of -- for an SST its
level, file number, size, key range, sequence range, entry count and DEK-ID;
for a WAL the MANIFEST names, its number, DEK-ID and synced length.  Content
integrity inside each file is the AEAD tags' job; the root's job is to
make the *set* unforgeable, so replaying an old snapshot (every file of
which carries a perfectly valid tag) is still caught when the root is
compared against the trusted monotonic counter.

The root deliberately covers only manifest-derivable SST metadata, not
volatile engine counters like ``last_sequence``: the open-time root must
be recomputable from a recovered MANIFEST alone, byte-for-byte, or every
clean restart would look like a rollback.
"""

from __future__ import annotations

import hashlib

from repro.util.coding import encode_length_prefixed, encode_varint64

#: blake2b ``person`` strings give leaves and interior nodes disjoint
#: domains, closing the classic leaf/node second-preimage confusion.
_LEAF_PERSON = b"shield-mkl-leaf"
_NODE_PERSON = b"shield-mkl-node"
_WAL_PERSON = b"shield-mkl-wal"

ROOT_SIZE = 32


def _digest(payload: bytes, person: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=ROOT_SIZE, person=person).digest()


#: The root of a store with no live files (a freshly created DB).
EMPTY_ROOT = _digest(b"", _NODE_PERSON)


def leaf_hash(level: int, meta) -> bytes:
    """Hash one live file's metadata (``meta`` is a ``FileMetadata``).

    ``meta.encode()`` is the same canonical serialization the MANIFEST
    logs, so the leaf binds exactly what recovery will reproduce.
    """
    return _digest(encode_varint64(level) + meta.encode(), _LEAF_PERSON)


def wal_leaf_hash(number: int, wal) -> bytes:
    """Hash one named WAL (``wal`` is a ``NamedWAL``) in a domain of its own:
    a version that names no WAL hashes as it did before WALs were named."""
    return _digest(
        encode_varint64(number) + encode_length_prefixed(wal.dek_id.encode())
        + encode_varint64(wal.synced),
        _WAL_PERSON,
    )


def merkle_root(version) -> bytes:
    """The root over ``version``'s live files (a ``Version`` duck type).

    Leaves are sorted so the root is independent of in-memory level
    ordering -- only the *set* of (level, metadata) pairs and named WALs
    matters.
    """
    leaves = sorted(
        [leaf_hash(level, meta) for level, meta in version.all_files()]
        + [wal_leaf_hash(number, wal) for number, wal in version.wals.items()]
    )
    if not leaves:
        return EMPTY_ROOT
    nodes = leaves
    while len(nodes) > 1:
        paired = [
            _digest(nodes[i] + nodes[i + 1], _NODE_PERSON)
            for i in range(0, len(nodes) - 1, 2)
        ]
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    return nodes[0]
