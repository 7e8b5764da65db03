"""The table set: the open SST readers of one database directory.

SHIELD's sharing mechanism (Sections 5.4 and 5.6) is one act performed by
whoever reads a file: open it, learn its DEK-ID from the plaintext envelope,
resolve it through *this* server's provider, read.  The writer's ``DB``, a
``ReadOnlyInstance`` and an offloaded compaction worker all do it here; they
differ in what they pass in -- a block cache (the DB alone), a provider (each
server's own KDS identity) -- and in how long they keep the set (the life of
the DB, of the instance, of one merge job).
"""

from __future__ import annotations

import threading

from repro.env.base import Env
from repro.lsm.filecrypto import CryptoProvider
from repro.lsm.filename import sst_path
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader
from repro.util.lru import LRUCache


class TableSet:
    """Readers by file number, and the quarantine marks, behind one lock."""

    def __init__(
        self,
        env: Env,
        directory: str,
        provider: CryptoProvider,
        options: Options,
        block_cache: LRUCache | None = None,
    ):
        self._open = lambda number: SSTReader(
            env, sst_path(directory, number), provider, options, block_cache
        )
        self._lock = threading.Lock()
        self._readers: dict[int, SSTReader] = {}
        #: File numbers whose authentication tag failed to verify.  Advisory,
        #: not blocking: reads keep trying (a transient device flip heals on
        #: the next good read, which clears the mark), but health() reports
        #: degraded and compaction refuses the file until repair or a clean
        #: read resolves it.  Replaced, never mutated: reading takes no lock.
        self.quarantined: frozenset[int] = frozenset()

    def reader(self, number: int) -> SSTReader:
        with self._lock:
            reader = self._readers.get(number)
        if reader is None:
            # Opened outside the lock: a cold open reads the envelope,
            # resolves the DEK (maybe a KDS round trip) and loads the index.
            reader = self._open(number)
            with self._lock:
                reader = self._readers.setdefault(number, reader)
        return reader

    def drop(self, number: int) -> None:
        """Forget a dead file: evict its reader and its cached blocks."""
        with self._lock:
            # Dropped without close(): concurrent reads holding the reader
            # keep working (POSIX unlink semantics).
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
            self.quarantined -= {number}
