"""Versions, version edits, and the MANIFEST.

A *Version* is an immutable snapshot of a store's files: which SST files
live at which level, and which WALs hold writes no SST has yet.  Changes are
described by *VersionEdits*, which are durably logged to the MANIFEST file
(same framed-record format as the WAL, and encrypted through the same
envelope/crypto seam -- the paper explicitly includes the Manifest in the
protected set).  Recovery replays the MANIFEST to rebuild the current
Version, then replays the WALs it names: the MANIFEST is the one list of a
store's files, and the directory is only where they are.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from repro.env.base import Env
from repro.errors import (
    CorruptionError,
    InvalidArgumentError,
    RecoveryError,
    RollbackError,
)
from repro.integrity.freshness import FreshnessAnchor
from repro.lsm.envelope import FILE_KIND_MANIFEST, envelope_dek_id
from repro.lsm.filecrypto import CryptoProvider
from repro.lsm.filename import (
    current_path, manifest_path, parse_file_name, wal_path,
)
from repro.lsm.memtable import Memtable
from repro.lsm.wal import WALWriter, read_log, replay_wal
from repro.util.syncpoint import SYNC
from repro.util.coding import (
    decode_length_prefixed,
    decode_varint64,
    encode_length_prefixed,
    encode_varint64,
)

SP_MANIFEST_BEFORE_CURRENT = SYNC.declare(
    "manifest:before_current_swap",
    "new MANIFEST durable, CURRENT still names the old one",
)
SP_MANIFEST_AFTER_CURRENT = SYNC.declare(
    "manifest:after_current_swap",
    "CURRENT names the new MANIFEST, old one not yet deleted",
)

_TAG_LOG_NUMBER = 1  # read only from a MANIFEST that names no WAL
_TAG_NEXT_FILE = 2
_TAG_LAST_SEQ = 3
_TAG_DELETED_FILE = 4
_TAG_NEW_FILE = 5
_TAG_WAL_ADDED = 6
_TAG_WAL_SYNCED = 7
_TAG_WAL_DROPPED = 8
# bisect keys over a level's sorted, non-overlapping files
_smallest = attrgetter("smallest")
_largest = attrgetter("largest")


@dataclass(frozen=True)
class FileMetadata:
    """Engine-level metadata for one SST file."""

    number: int
    size: int
    smallest: bytes
    largest: bytes
    smallest_seq: int
    largest_seq: int
    num_entries: int
    dek_id: str = ""
    created_at: float = 0.0  # engine-clock timestamp (FIFO TTL expiry)

    def overlaps(self, begin: bytes | None, end: bytes | None) -> bool:
        """Key-range overlap with [begin, end] (None = unbounded)."""
        if begin is not None and self.largest < begin:
            return False
        if end is not None and self.smallest > end:
            return False
        return True

    def encode(self) -> bytes:
        return b"".join(
            (
                encode_varint64(self.number),
                encode_varint64(self.size),
                encode_length_prefixed(self.smallest),
                encode_length_prefixed(self.largest),
                encode_varint64(self.smallest_seq),
                encode_varint64(self.largest_seq),
                encode_varint64(self.num_entries),
                encode_length_prefixed(self.dek_id.encode()),
                struct.pack("<d", self.created_at),
            )
        )

    @staticmethod
    def decode(buf: bytes, offset: int) -> tuple["FileMetadata", int]:
        number, offset = decode_varint64(buf, offset)
        size, offset = decode_varint64(buf, offset)
        smallest, offset = decode_length_prefixed(buf, offset)
        largest, offset = decode_length_prefixed(buf, offset)
        smallest_seq, offset = decode_varint64(buf, offset)
        largest_seq, offset = decode_varint64(buf, offset)
        num_entries, offset = decode_varint64(buf, offset)
        dek_id, offset = decode_length_prefixed(buf, offset)
        (created_at,) = struct.unpack_from("<d", buf, offset)
        offset += 8
        return (
            FileMetadata(
                number=number,
                size=size,
                smallest=smallest,
                largest=largest,
                smallest_seq=smallest_seq,
                largest_seq=largest_seq,
                num_entries=num_entries,
                dek_id=dek_id.decode(),
                created_at=created_at,
            ),
            offset,
        )


class NamedWAL(NamedTuple):
    """A WAL the MANIFEST names: the DEK-ID its envelope must carry, and its
    payload bytes synced when it was rotated out (0 while it is active)."""

    dek_id: str
    synced: int = 0


@dataclass
class VersionEdit:
    """A durable delta against the current Version."""

    log_number: int | None = None
    next_file_number: int | None = None
    last_sequence: int | None = None
    new_files: list[tuple[int, FileMetadata]] = field(default_factory=list)
    deleted_files: list[tuple[int, int]] = field(default_factory=list)
    new_wals: list[tuple[int, str]] = field(default_factory=list)
    synced_wals: list[tuple[int, int]] = field(default_factory=list)
    dropped_wals: list[int] = field(default_factory=list)

    def add_file(self, level: int, meta: FileMetadata) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.append((level, number))

    def encode(self) -> bytes:
        parts: list[bytes] = []
        for tag, value in (
            (_TAG_LOG_NUMBER, self.log_number),
            (_TAG_NEXT_FILE, self.next_file_number),
            (_TAG_LAST_SEQ, self.last_sequence),
        ):
            if value is not None:
                parts += (encode_varint64(tag), encode_varint64(value))
        for level, number in self.deleted_files:
            parts += (encode_varint64(_TAG_DELETED_FILE), encode_varint64(level),
                      encode_varint64(number))
        for level, meta in self.new_files:
            parts += (encode_varint64(_TAG_NEW_FILE), encode_varint64(level),
                      meta.encode())
        for number, dek_id in self.new_wals:
            parts += (encode_varint64(_TAG_WAL_ADDED), encode_varint64(number),
                      encode_length_prefixed(dek_id.encode()))
        for number, length in self.synced_wals:
            parts += (encode_varint64(_TAG_WAL_SYNCED), encode_varint64(number),
                      encode_varint64(length))
        for number in self.dropped_wals:
            parts += (encode_varint64(_TAG_WAL_DROPPED), encode_varint64(number))
        return b"".join(parts)

    @classmethod
    def decode(cls, buf: bytes) -> "VersionEdit":
        try:
            return cls._decode(buf)
        except CorruptionError:
            raise
        except Exception as exc:  # noqa: BLE001 - any parse slip is corruption
            raise CorruptionError(f"corrupt version edit: {exc}")

    @classmethod
    def _decode(cls, buf: bytes) -> "VersionEdit":
        edit = cls()
        offset = 0
        while offset < len(buf):
            tag, offset = decode_varint64(buf, offset)
            if tag == _TAG_LOG_NUMBER:
                edit.log_number, offset = decode_varint64(buf, offset)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, offset = decode_varint64(buf, offset)
            elif tag == _TAG_LAST_SEQ:
                edit.last_sequence, offset = decode_varint64(buf, offset)
            elif tag == _TAG_DELETED_FILE:
                level, offset = decode_varint64(buf, offset)
                number, offset = decode_varint64(buf, offset)
                edit.deleted_files.append((level, number))
            elif tag == _TAG_NEW_FILE:
                level, offset = decode_varint64(buf, offset)
                meta, offset = FileMetadata.decode(buf, offset)
                edit.new_files.append((level, meta))
            elif tag == _TAG_WAL_ADDED:
                number, offset = decode_varint64(buf, offset)
                dek_id, offset = decode_length_prefixed(buf, offset)
                edit.new_wals.append((number, dek_id.decode()))
            elif tag == _TAG_WAL_SYNCED:
                number, offset = decode_varint64(buf, offset)
                length, offset = decode_varint64(buf, offset)
                edit.synced_wals.append((number, length))
            elif tag == _TAG_WAL_DROPPED:
                number, offset = decode_varint64(buf, offset)
                edit.dropped_wals.append(number)
            else:
                raise CorruptionError(f"unknown version edit tag {tag}")
        return edit


class Version:
    """Immutable per-level file lists, and the WALs named by number.

    Level 0 files may overlap and are ordered newest-first (descending file
    number).  Levels >= 1 are non-overlapping and sorted by smallest key.
    """

    def __init__(self, num_levels: int):
        self.levels: list[list[FileMetadata]] = [[] for _ in range(num_levels)]
        self.wals: dict[int, NamedWAL] = {}

    def clone(self) -> "Version":
        version = Version(len(self.levels))
        version.levels = [list(level) for level in self.levels]
        version.wals = dict(self.wals)
        return version

    def apply(self, edit: VersionEdit) -> "Version":
        version = self.clone()
        deleted = set(edit.deleted_files)
        for level in range(len(version.levels)):
            version.levels[level] = [
                meta
                for meta in version.levels[level]
                if (level, meta.number) not in deleted
            ]
        for level, meta in edit.new_files:
            version.levels[level].append(meta)
        wals = version.wals
        for number, dek_id in edit.new_wals:
            wals[number] = NamedWAL(dek_id)
        for number, length in edit.synced_wals:
            if number in wals:
                wals[number] = NamedWAL(wals[number].dek_id, length)
        for number in edit.dropped_wals:
            wals.pop(number, None)
        # L0 is searched newest-first.  Order by data recency (sequence),
        # not file number: concurrent flushes may finish out of order.
        version.levels[0].sort(key=lambda m: (-m.largest_seq, -m.number))
        for level in range(1, len(version.levels)):
            version.levels[level].sort(key=lambda m: m.smallest)
        return version

    def all_files(self) -> list[tuple[int, FileMetadata]]:
        return [
            (level, meta)
            for level, files in enumerate(self.levels)
            for meta in files
        ]

    def num_files(self) -> int:
        return sum(len(files) for files in self.levels)

    def total_size(self) -> int:
        return sum(meta.size for __, meta in self.all_files())

    def level_size(self, level: int) -> int:
        return sum(meta.size for meta in self.levels[level])

    def overlapping_files(
        self, level: int, begin: bytes | None, end: bytes | None
    ) -> list[FileMetadata]:
        return [meta for meta in self.levels[level] if meta.overlaps(begin, end)]

    def candidates_for_key(self, key: bytes) -> list[tuple[int, FileMetadata]]:
        """Files that may hold ``key``, in newest-to-oldest search order."""
        candidates: list[tuple[int, FileMetadata]] = [
            (0, meta)
            for meta in self.levels[0]
            if meta.smallest <= key <= meta.largest
        ]
        for level in range(1, len(self.levels)):
            files = self.levels[level]
            if not files:
                continue
            index = bisect.bisect_left(files, key, key=_largest)
            if index < len(files) and files[index].smallest <= key:
                candidates.append((level, files[index]))
        return candidates

    def runs_for_range(
        self, start: bytes, end: bytes | None
    ) -> list[list[FileMetadata]]:
        """The sorted runs a scan of [start, end) merges, newest first.

        A run is a list of files with disjoint, ascending key ranges, so it
        is ONE merge source read front to back.  L0 files may overlap each
        other (and every level), so each overlapping L0 file is its own
        run; a level >= 1 is non-overlapping and sorted, so its bisected
        slice -- first file with ``largest >= start`` to last with
        ``smallest < end`` -- is one run however many files it holds.
        """
        runs = [
            [meta]
            for meta in self.levels[0]
            if meta.largest >= start and (end is None or meta.smallest < end)
        ]
        for files in self.levels[1:]:
            first = bisect.bisect_left(files, start, key=_largest)
            stop = (
                len(files) if end is None
                else bisect.bisect_left(files, end, first, key=_smallest)
            )
            if first < stop:
                runs.append(files[first:stop])
        return runs


class VersionSet:
    """Owns the current Version, counters, the MANIFEST log and ``anchor``."""

    def __init__(
        self,
        env: Env,
        dbname: str,
        provider: CryptoProvider,
        num_levels: int,
        trusted_counter=None,
        stats=None,
    ):
        self._env = env
        self._dbname = dbname
        self._provider = provider
        self.current = Version(num_levels)
        self.next_file_number = 1
        self.last_sequence = 0
        self.log_number = 0
        self._manifest: WALWriter | None = None
        self._manifest_number = 0
        self._manifest_dek_id = ""
        self._manifest_failed = False  # a record may sit in its tail unapplied
        self.anchor = FreshnessAnchor(trusted_counter, stats)

    # -- counters -----------------------------------------------------------

    @property
    def manifest_number(self) -> int:
        """File number of the live MANIFEST (0 before the first one)."""
        return self._manifest_number

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- manifest lifecycle ---------------------------------------------------

    def create_manifest(self) -> None:
        """Start a fresh MANIFEST seeded with a full snapshot of state."""
        self.anchor.advance(self.current)
        number = self.new_file_number()
        path = manifest_path(self._dbname, number)
        crypto = self._provider.for_new_file(FILE_KIND_MANIFEST, path)
        writer = WALWriter(self._env, path, crypto, file_kind=FILE_KIND_MANIFEST)
        snapshot = VersionEdit(
            log_number=self.log_number or None,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
        )
        for level, meta in self.current.all_files():
            snapshot.add_file(level, meta)
        wals = self.current.wals.items()
        snapshot.new_wals = [(number, wal.dek_id) for number, wal in wals]
        snapshot.synced_wals = [(number, wal.synced) for number, wal in wals]
        writer.add_record(snapshot.encode())
        writer.sync()

        old_manifest_number = self._manifest_number
        old_dek_id = self._manifest_dek_id
        if self._manifest is not None:
            self._manifest.close()
        self._manifest = writer
        self._manifest_number = number
        self._manifest_dek_id = crypto.dek_id
        SYNC.process(SP_MANIFEST_BEFORE_CURRENT)
        self._env.write_file(
            current_path(self._dbname), f"MANIFEST-{number:06d}\n".encode()
        )
        SYNC.process(SP_MANIFEST_AFTER_CURRENT)
        if old_manifest_number:
            old_path = manifest_path(self._dbname, old_manifest_number)
            self._env.delete_file(old_path)
            self._provider.on_file_deleted(old_dek_id, old_path)

    def log_and_apply(self, edit: VersionEdit) -> None:
        """Durably record ``edit`` and make it the current state.

        A record whose append or sync failed is not applied, but its bytes
        may sit in the MANIFEST's tail, where a reopen would replay it.  So
        the next edit first rolls to a fresh MANIFEST that holds only the
        current state."""
        if self._manifest is None:
            raise RecoveryError("MANIFEST is not open")
        if self._manifest_failed:
            self.create_manifest()
            self._manifest_failed = False
        edit.next_file_number = self.next_file_number
        next_version = self.current.apply(edit)
        self.anchor.advance(next_version)  # counter first
        try:
            self._manifest.add_record(edit.encode())
            self._manifest.sync()
        except BaseException:
            self._manifest_failed = True
            self.anchor.forget()
            raise
        self.current = next_version
        if edit.last_sequence is not None:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)

    def recover(self) -> None:
        """Rebuild state by replaying the MANIFEST named in CURRENT."""
        current = self._env.read_file(current_path(self._dbname)).decode().strip()
        path = f"{self._dbname}/{current}"
        if not self._env.file_exists(path):
            raise RecoveryError(f"CURRENT points at missing manifest {current}")
        raw = self._env.read_file(path)
        self._manifest_number = (parse_file_name(current) or ("", 0))[1]
        self._manifest_dek_id = envelope_dek_id(raw)  # retired when replaced
        version = Version(len(self.current.levels))
        for record in read_log(raw, path, self._provider)[0]:
            edit = VersionEdit.decode(record)
            version = version.apply(edit)
            if edit.log_number is not None:
                self.log_number = edit.log_number
            if edit.next_file_number is not None:
                self.next_file_number = max(
                    self.next_file_number, edit.next_file_number
                )
            if edit.last_sequence is not None:
                self.last_sequence = max(self.last_sequence, edit.last_sequence)
            for __, meta in edit.new_files:
                # Defensive: never hand out a file number that is already on
                # disk, even if the logged next_file_number lagged behind.
                self.next_file_number = max(self.next_file_number, meta.number + 1)
        self.current = version

    def replay_wals(self, listed, *, final: bool) -> Memtable:
        """Replay the named WALs, oldest first, each through its anchored
        length (MANIFEST length or floor); one anchored at 0 may be gone when
        ``final`` (a copy names the primary's active log).  A MANIFEST naming
        none (older, or repair's) names them by ``log_number`` and ``listed``."""
        if not self.current.wals:
            read = self._env.read_file
            edit = VersionEdit(new_wals=[
                (number, envelope_dek_id(read(f"{self._dbname}/{name}")))
                for kind, number, name in listed
                if kind == "wal" and number >= self.log_number
            ])
            self.current, self.log_number = self.current.apply(edit), 0
        memtable = Memtable()
        for number, wal in sorted(self.current.wals.items()):
            path = wal_path(self._dbname, number)
            anchored = max(wal.synced, self.anchor.floor(number))
            replayed = replay_wal(
                self._env, path, self._provider, wal.dek_id, memtable
            )
            length, last = replayed or (0, 0)
            if length < anchored or (replayed is None and not final):
                raise RollbackError(
                    f"{path} replays {length} of its {anchored} anchored bytes"
                )
            self.last_sequence = max(self.last_sequence, last)
        return memtable

    def close(self) -> None:
        if self._manifest is not None:
            self._manifest.close()
            self._manifest = None


#: A non-writer reads the MANIFEST, then the counter, while a live writer may
#: move both: a mismatch is believed only when this many re-reads agree.
_READER_ATTEMPTS = 4


def recover_store(
    env: Env, path: str, provider: CryptoProvider, options, stats, *, writer: bool
):
    """Open a store -- MANIFEST replay, freshness gate, replay of the WALs it
    names -- for its writer (``DB``: may create it) or for anybody else (a
    ``ReadOnlyInstance``: writes nothing) -> ``(versions, memtable, orphans)``:
    the one directory listing moves ``next_file_number`` past every file and
    finds what the MANIFEST does not name.  ``RollbackError`` when the file
    set is older than the anchor or a named WAL is gone or short; a reader
    believes it only when every re-read agrees (a live writer moves both)."""
    listed = [
        (*parsed, name) for name in env.list_dir(path)
        if (parsed := parse_file_name(name))
    ]
    attempts = 1 if writer else _READER_ATTEMPTS
    for attempt in range(1, attempts + 1):
        versions = VersionSet(
            env, path, provider, options.num_levels,
            trusted_counter=options.trusted_counter, stats=stats,
        )
        if not writer or env.file_exists(current_path(path)):
            versions.recover()
        elif not options.create_if_missing:
            raise InvalidArgumentError(f"database {path} does not exist")
        try:
            versions.anchor.verify(versions.current)
            memtable = versions.replay_wals(listed, final=attempt == attempts)
            break
        except RollbackError:
            if attempt == attempts:
                raise
    version, orphans = versions.current, []
    live = {meta.number for __, meta in version.all_files()}
    for kind, number, name in listed:
        # A new file must not take the number of one the MANIFEST never
        # counted (a killed writer's new WAL or uninstalled SST).
        versions.next_file_number = max(versions.next_file_number, number + 1)
        if (
            (kind == "sst" and number not in live)
            or (kind == "wal" and number not in version.wals)
            or (kind == "manifest" and number != versions.manifest_number)
        ):
            orphans.append(f"{path}/{name}")
    return versions, memtable, orphans
