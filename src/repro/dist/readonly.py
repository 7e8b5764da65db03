"""Read-only LSM-KVS instances over shared disaggregated storage.

Extra compute instances serve queries from the shared WAL and SST files
(Section 2.2, Figure 2) and write nothing; each resolves a file's DEK from the
envelope DEK-ID through its *own* KeyClient, like an offloaded compaction
worker (Section 5.4).  One is the read half of ``DB``, not a second engine: the
same open (``recover_store``, its freshness gate), ``lookup``, ``scan_runs``.
A replica is one too, over copies of the files plus a log tail
(``repro.service.replica``).
"""

from __future__ import annotations

import contextlib

from repro.errors import AuthenticationError, ReproError
from repro.lsm.dbformat import MAX_SEQUENCE
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.iterator import scan_runs
from repro.lsm.memtable import Memtable
from repro.lsm.options import Options
from repro.lsm.tables import Attribution, TableSet, lookup
from repro.lsm.version import FileMetadata, Version, recover_store
from repro.util.stats import StatsRegistry


class ReadOnlyInstance(contextlib.AbstractContextManager):
    """Serve gets/scans from another instance's persistent files."""

    def __init__(self, path: str, options: Options | None = None,
                 provider: CryptoProvider | None = None):
        self.path = path
        self.options = options or Options()
        self.env = self.options.env
        if self.env is None:
            raise ValueError("ReadOnlyInstance needs an explicit env")
        self.provider = provider or self.options.crypto_provider \
            or PlaintextCryptoProvider()
        self.stats = StatsRegistry()  # integrity.* counters of this instance
        self._sst_probes = self.stats.counter("db.get_sst_probes")
        self._tables = TableSet(self.env, path, self.provider, self.options)
        self._attributing = Attribution(self._tables, self.stats)
        self._view = ([], Version(self.options.num_levels))  # memtables, version
        self.refresh()

    def refresh(self, tail: Memtable | None = None) -> None:
        """Open the store again (writing nothing) and swap memtables and
        version in as one view; ``RollbackError`` if stale.  Without ``tail``
        a file is opened when a read first reaches it.  With one (a replica's
        log tail, served above the files) every live file is opened before
        the swap, which a failure leaves undone: a replica's files are copies
        whose DEKs the writer retires once it compacts the originals away."""
        versions, recovered, __ = recover_store(
            self.env, self.path, self.provider, self.options, self.stats, writer=False
        )
        version = versions.current
        memtables = [recovered]
        if tail is not None:
            with self._attributing:
                for __, meta in version.all_files():
                    self._tables.reader(meta)
            memtables.insert(0, tail)
        old, self._view = self._view[1].all_files(), (memtables, version)
        live = {meta.number for __, meta in version.all_files()}
        for __, meta in old:
            if meta.number not in live:
                self._tables.drop(meta.number)

    def _read(self, read_once):
        """``read_once(memtables, version)``; again when a ``refresh()``
        replaced the view mid-read, never after a failed tag."""
        with self._attributing:
            while True:
                view = self._view
                try:
                    return read_once(*view)
                except ReproError as exc:
                    if isinstance(exc, AuthenticationError) or self._view is view:
                        raise

    def get(self, key: bytes) -> bytes | None:
        return self._read(lambda memtables, version: lookup(
            memtables, version, self._tables, self._sst_probes, key, MAX_SEQUENCE
        ))

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None) -> list[tuple[bytes, bytes]]:
        """A file is opened (over ``RemoteEnv``: a link ping and reads) when
        the cursor reaches it, not before: ``scan_runs``."""
        return self._read(lambda memtables, version: list(scan_runs(
            [memtable.entries(start) for memtable in memtables],
            version.runs_for_range(start, end),
            lambda meta, seek: self._tables.reader(meta).entries_from(seek),
            start, end, limit,
        )))

    def live_files(self) -> list[tuple[int, FileMetadata]]:
        return self._view[1].all_files()

    def quarantined_files(self) -> list[int]:
        return sorted(self._tables.quarantined)

    def close(self) -> None:
        self._tables.close()

    def __exit__(self, *exc_info) -> None:
        self.close()
