"""The table set: the open SST readers of one database directory.

SHIELD's sharing mechanism (Sections 5.4 and 5.6) is one act performed by
whoever reads a file: open it, learn its DEK-ID from the plaintext envelope,
resolve it through *this* server's provider, read.  The writer's ``DB``, a
``ReadOnlyInstance`` and an offloaded compaction worker all do it here; they
differ in what they pass in -- a block cache (the DB alone), a provider (each
server's own KDS identity) -- and in how long they keep the set (the life of
the DB, of the instance, of one merge job).  All of them name the file by the
``FileMetadata`` their MANIFEST holds, and the open checks the file against it.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.env.base import Env
from repro.errors import AuthenticationError
from repro.lsm.dbformat import TYPE_PUT
from repro.lsm.filecrypto import CryptoProvider
from repro.lsm.filename import parse_file_name, sst_path
from repro.lsm.iterator import scan_runs
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader
from repro.lsm.version import FileMetadata, Version
from repro.util.lru import LRUCache
from repro.util.stats import Counter, StatsRegistry


class TableSet:
    """Readers by file number, and the quarantine marks, behind one lock."""

    def __init__(
        self,
        env: Env,
        directory: str,
        provider: CryptoProvider,
        options: Options,
        block_cache: LRUCache | None = None,
        on_heal: Callable[[], None] = lambda: None,
    ):
        self._open = lambda meta: SSTReader(
            env, sst_path(directory, meta.number), provider, options,
            block_cache, dek_id=meta.dek_id,
        )
        #: Called (no lock held) when a quarantine mark is lifted: the file
        #: is compactable again, which whoever schedules merges must hear.
        self._on_heal = on_heal
        self._lock = threading.Lock()
        self._readers: dict[int, SSTReader] = {}
        #: File numbers whose authentication tag failed to verify.  Advisory,
        #: not blocking: reads keep trying (a transient device flip heals on
        #: the next good read, which clears the mark), but health() reports
        #: degraded and compaction refuses the file until repair or a clean
        #: read resolves it.  Replaced, never mutated: reading takes no lock.
        self.quarantined: frozenset[int] = frozenset()

    def reader(self, meta: FileMetadata) -> SSTReader:
        number = meta.number
        with self._lock:
            reader = self._readers.get(number)
        if reader is None:
            # Opened outside the lock: a cold open reads the envelope,
            # checks its DEK-ID against ``meta``, resolves the DEK (maybe a
            # KDS round trip) and loads the index.
            reader = self._open(meta)
            _check_binding(reader, meta)  # per open, never per read
            with self._lock:
                reader = self._readers.setdefault(number, reader)
        return reader

    def drop(self, number: int) -> None:
        """Forget a dead file (a DB's: one no view holds): evict reader, blocks."""
        with self._lock:
            reader = self._readers.pop(number, None)
        if reader is not None:
            # Its blocks can never be asked for again; left behind they
            # would squat in the cache until LRU pressure found them.
            reader.purge_cached_blocks()

    def close(self) -> None:
        with self._lock:
            for reader in self._readers.values():
                reader.close()
            self._readers.clear()

    def mark(self, number: int) -> bool:
        """Quarantine a file and evict its reader (and with it the cipher
        context holding the key); True when the mark is new."""
        with self._lock:
            self._readers.pop(number, None)
            fresh = number not in self.quarantined
            self.quarantined |= {number}
            return fresh

    def clear(self, number: int) -> None:
        """A clean authenticated read resolves a prior transient failure."""
        with self._lock:
            healed = number in self.quarantined
            self.quarantined -= {number}
        if healed:
            self._on_heal()


def _check_binding(reader: SSTReader, meta: FileMetadata) -> None:
    """A sealed file authenticates under its own DEK wherever it is put, so
    authentic bytes under the wrong name -- an older sibling, a retired file,
    two live files swapped -- pass every tag.  What was opened must be what
    the MANIFEST (and, through its Merkle leaf, the trusted counter) names:
    the DEK-ID, checked by ``SSTReader`` before the DEK is resolved, and
    the rest here."""
    props = reader.properties
    if (
        reader.file_size, reader.num_entries,
        props.get("smallest_key"), props.get("largest_key"),
    ) != (
        meta.size, meta.num_entries, meta.smallest.hex(), meta.largest.hex(),
    ):
        reader.close()
        error = AuthenticationError(
            f"{reader.path}: not the file the MANIFEST names (size, key "
            "range or entry count differ)"
        )
        error.sst_path = reader.path
        raise error


@dataclass
class Attribution(contextlib.AbstractContextManager):
    """``with`` this around whatever reads a table set's SSTs: a call, a lazy
    cursor, a merge here or on another server.  ``SSTReader`` and the binding
    check stamp the file on the ``AuthenticationError`` they let through;
    here, and only here, the stamp becomes a quarantine mark.  The error
    always goes on."""

    tables: TableSet
    stats: StatsRegistry

    def __exit__(self, exc_type, exc, traceback) -> None:
        if isinstance(exc, AuthenticationError):
            parsed = parse_file_name((exc.sst_path or "").rpartition("/")[2])
            if parsed and self.tables.mark(parsed[1]):
                self.stats.counter("integrity.quarantines").add(1)


class ReadView:
    """One read's sources, captured in one hold: memtables newest first, a
    ``Version``, the sequence it sees.  Every reader's point lookup and scan
    (DESIGN.md, "Read path"); ``probes`` counts the files a lookup asks."""

    __slots__ = ("memtables", "version", "sequence", "tables", "probes")

    def __init__(self, memtables: list, version: Version, sequence: int,
                 tables: TableSet, probes: Counter):
        self.memtables, self.version, self.sequence = memtables, version, sequence
        self.tables, self.probes = tables, probes

    def get(self, key: bytes) -> bytes | None:
        """The memtables, then the files that may hold ``key``, newest first."""
        at = self.sequence
        for memtable in self.memtables:
            result = memtable.get(key, at)
            if result is not None:
                break
        else:
            tables = self.tables
            for __, meta in self.version.candidates_for_key(key):
                if meta.smallest_seq > at:
                    continue
                self.probes.add(1)
                result = tables.reader(meta).get(key, at)
                if tables.quarantined:  # a clean read heals a transient failure
                    tables.clear(meta.number)
                if result is not None:
                    break
            else:
                return None
        vtype, value = result
        return value if vtype == TYPE_PUT else None

    def scan(
        self, start: bytes, end: bytes | None, limit: int | None = None,
        opened: list[int] | None = None,
    ) -> tuple[int, Iterator[tuple[bytes, bytes]]]:
        """``(merge sources, lazy pairs)`` of ``scan_runs``; a file's number
        goes to ``opened`` when the cursor reaches it."""
        runs = self.version.runs_for_range(start, end)

        def entries_of(meta: FileMetadata, seek: bytes):
            if opened is not None:
                opened.append(meta.number)
            return self.tables.reader(meta).entries_from(seek)

        pairs = scan_runs(
            [memtable.entries(start) for memtable in self.memtables], runs,
            entries_of, start, end, limit, self.sequence,
        )
        return len(self.memtables) + len(runs), pairs


class Snapshot(int, contextlib.AbstractContextManager):
    """``DB.snapshot()``: a sequence for ``ReadOptions.snapshot`` and ``view``,
    pinned at it until ``release()`` (or a ``with`` block's end) unpins it."""

    def __new__(cls, view: ReadView, unpin: Callable[[ReadView], None]):
        self = super().__new__(cls, view.sequence)
        self.view, self._unpin = view, unpin
        return self

    def release(self) -> None:
        """Let the view go (``view`` is None after); later calls do nothing."""
        view, self.view = self.view, None
        if view is not None:
            self._unpin(view)

    def __exit__(self, *exc_info) -> None:
        self.release()
