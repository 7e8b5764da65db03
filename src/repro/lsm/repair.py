"""Disaster recovery: rebuild a lost/corrupt MANIFEST from the SST files.

The analogue of RocksDB's ``RepairDB``: every ``*.sst`` in the directory is
opened (resolving its DEK through the provider -- the envelope makes this
possible even on a foreign server), its key range and counts are read from
its own metadata, and a fresh MANIFEST snapshot is written placing every
file at level 0.  Level-0 tolerates arbitrary overlap, and sequence numbers
stored per file let reads pick the newest version, so the repaired tree is
correct if fatter than the original; the next compactions re-shape it.
"""

from __future__ import annotations

from repro.env.base import Env
from repro.errors import AuthenticationError, CorruptionError, RecoveryError
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.filename import parse_file_name
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader
from repro.lsm.version import FileMetadata, VersionEdit, VersionSet

#: Suffix appended to files repair moves aside.  ``parse_file_name`` does
#: not recognize the suffixed name, so quarantined files are invisible to
#: every engine path (recovery, GC, reads) but kept on storage as
#: forensic evidence instead of being destroyed.
QUARANTINE_SUFFIX = ".quarantine"


def repair_db(
    env: Env,
    path: str,
    provider: CryptoProvider | None = None,
    options: Options | None = None,
) -> int:
    """Rebuild CURRENT/MANIFEST from the SST files under ``path``.

    Returns the number of recovered files.  An SST that fails its AEAD
    tag (or is otherwise unreadable) is *quarantined* -- renamed aside
    with :data:`QUARANTINE_SUFFIX` -- and the rebuild continues with the
    rest; repair is the flow that must not abort on tampering.  Raises
    :class:`~repro.errors.RecoveryError` if no SST file could be read.

    When ``options.trusted_counter`` is set, the counter is re-anchored
    to the repaired file set: running repair is the operator's explicit
    attestation of the surviving files, the one sanctioned way to move
    the freshness anchor to a different store state.
    """
    provider = provider or PlaintextCryptoProvider()
    options = options or Options()

    recovered: list[FileMetadata] = []
    quarantined: list[str] = []
    max_number = 0
    max_seq = 0
    for name in env.list_dir(path):
        parsed = parse_file_name(name)
        if not parsed:
            continue
        kind, number = parsed
        max_number = max(max_number, number)
        if kind != "sst":
            continue
        file_path = f"{path}/{name}"
        reader = None
        try:
            reader = SSTReader(env, file_path, provider, options)
            smallest = bytes.fromhex(reader.properties["smallest_key"])
            largest = bytes.fromhex(reader.properties["largest_key"])
            entries = list(reader.entries())
            smallest_seq = min(entry[1] for entry in entries)
            largest_seq = max(entry[1] for entry in entries)
            recovered.append(
                FileMetadata(
                    number=number,
                    size=env.file_size(file_path),
                    smallest=smallest,
                    largest=largest,
                    smallest_seq=smallest_seq,
                    largest_seq=largest_seq,
                    num_entries=reader.num_entries,
                    dek_id=reader.dek_id,
                )
            )
            max_seq = max(max_seq, largest_seq)
        except (AuthenticationError, CorruptionError):
            if reader is not None:
                reader.close()
                reader = None
            env.rename_file(file_path, file_path + QUARANTINE_SUFFIX)
            quarantined.append(name)
        finally:
            if reader is not None:
                reader.close()

    if not recovered:
        raise RecoveryError(f"no readable SST files under {path}")

    versions = VersionSet(
        env, path, provider, options.num_levels, options.trusted_counter
    )
    versions.next_file_number = max_number + 1
    versions.last_sequence = max_seq
    edit = VersionEdit()
    for meta in recovered:
        edit.add_file(0, meta)
    versions.current = versions.current.apply(edit)
    versions.create_manifest()  # anchors the counter first, like every edit
    versions.close()
    return len(recovered)
