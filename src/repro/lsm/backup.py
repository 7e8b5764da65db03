"""Backup engine: incremental, deduplicated database backups.

The RocksDB BackupEngine analogue, adapted to this engine:

- a *backup* is a manifest-consistent copy of a database at one point in
  time (the source is flushed first, so no WAL is needed to restore);
- SST files are content-immutable and identified by their globally unique
  file numbers, so successive backups share them -- each incremental backup
  copies only files the backup directory doesn't already hold;
- restore materializes any retained backup into a fresh, openable
  database directory.

Layout under the backup root::

    shared/<number>.sst           deduplicated SST payloads
    meta/<backup_id>              snapshot: MANIFEST name + file list
    meta/<backup_id>.MANIFEST     the manifest bytes at backup time

Under SHIELD, backed-up files keep their envelopes: restoring on any
authorized server resolves DEKs through the KDS exactly like shared
storage does.  Retiring a DEK (rotation) makes *older backups of that
file* undecryptable -- operators must retain keys for as long as they
retain backups (the classic key-lifecycle/backup tension; see
docs/THREAT_MODEL.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.env.base import Env
from repro.errors import NotFoundError
from repro.lsm.db import DB
from repro.lsm.filename import current_path
from repro.util.coding import (
    decode_length_prefixed,
    decode_varint64,
    encode_length_prefixed,
    encode_varint64,
)


@dataclass(frozen=True)
class BackupInfo:
    backup_id: int
    file_numbers: tuple[int, ...]
    new_files_copied: int


class BackupEngine:
    """Create, list, restore, and purge incremental backups."""

    def __init__(self, env: Env, backup_root: str):
        self.env = env
        self.root = backup_root
        env.mkdirs(backup_root)
        env.mkdirs(f"{backup_root}/shared")
        env.mkdirs(f"{backup_root}/meta")

    # -- internals -----------------------------------------------------------

    def _meta_path(self, backup_id: int) -> str:
        return f"{self.root}/meta/{backup_id:06d}"

    def _existing_shared(self) -> set[int]:
        numbers = set()
        for name in self.env.list_dir(f"{self.root}/shared"):
            if name.endswith(".sst"):
                numbers.add(int(name.split(".")[0]))
        return numbers

    def _backup_ids(self) -> list[int]:
        ids = set()
        for name in self.env.list_dir(f"{self.root}/meta"):
            head = name.split(".")[0]
            if head.isdigit():
                ids.add(int(head))
        return sorted(ids)

    # -- public API ------------------------------------------------------------

    def create_backup(self, db: DB) -> BackupInfo:
        """Snapshot ``db`` (flushes first); copies only new SST files."""
        backup_id = (self._backup_ids() or [0])[-1] + 1
        meta_path = self._meta_path(backup_id)
        copied = []

        def write(name: str, data: bytes) -> None:
            if name.endswith(".sst"):
                copied.append(name)
                self.env.write_file(f"{self.root}/shared/{name}", data)
            elif name != "CURRENT":  # restore writes one naming the MANIFEST
                self.env.write_file(f"{meta_path}.MANIFEST", data)

        live, manifest_name = db.copy_file_set(write, self._existing_shared())
        payload = [encode_length_prefixed(manifest_name.encode())]
        payload.append(encode_varint64(len(live)))
        payload.extend(encode_varint64(number) for number in live)
        self.env.write_file(meta_path, b"".join(payload))
        return BackupInfo(
            backup_id=backup_id,
            file_numbers=tuple(live),
            new_files_copied=len(copied),
        )

    def list_backups(self) -> list[BackupInfo]:
        infos = []
        for backup_id in self._backup_ids():
            __, numbers = self._read_meta(backup_id)
            infos.append(
                BackupInfo(
                    backup_id=backup_id,
                    file_numbers=tuple(numbers),
                    new_files_copied=0,
                )
            )
        return infos

    def _read_meta(self, backup_id: int) -> tuple[str, list[int]]:
        path = self._meta_path(backup_id)
        if not self.env.file_exists(path):
            raise NotFoundError(f"no backup {backup_id}")
        buf = self.env.read_file(path)
        manifest_name, offset = decode_length_prefixed(buf, 0)
        count, offset = decode_varint64(buf, offset)
        numbers = []
        for _ in range(count):
            number, offset = decode_varint64(buf, offset)
            numbers.append(number)
        return manifest_name.decode(), numbers

    def restore(self, backup_id: int, dest_path: str) -> None:
        """Materialize a backup as an openable database directory."""
        manifest_name, numbers = self._read_meta(backup_id)
        self.env.mkdirs(dest_path)
        meta_path = self._meta_path(backup_id)
        sources = {f"{n:06d}.sst": f"{self.root}/shared/{n:06d}.sst" for n in numbers}
        sources[manifest_name] = meta_path + ".MANIFEST"
        for name, source in sources.items():
            self.env.write_file(f"{dest_path}/{name}", self.env.read_file(source))
        self.env.write_file(current_path(dest_path), f"{manifest_name}\n".encode())

    def purge_old_backups(self, keep: int) -> int:
        """Drop all but the newest ``keep`` backups and garbage-collect any
        shared file no retained backup references.  Returns files deleted."""
        ids = self._backup_ids()
        doomed_ids = ids[:-keep] if keep > 0 else ids
        for backup_id in doomed_ids:
            self.env.delete_file(self._meta_path(backup_id))
            self.env.delete_file(self._meta_path(backup_id) + ".MANIFEST")
        referenced: set[int] = set()
        for backup_id in self._backup_ids():
            __, numbers = self._read_meta(backup_id)
            referenced.update(numbers)
        deleted = 0
        for number in self._existing_shared():
            if number not in referenced:
                self.env.delete_file(f"{self.root}/shared/{number:06d}.sst")
                deleted += 1
        return deleted
