"""Read-only LSM-KVS instances over shared disaggregated storage.

Extra compute instances serve queries from the shared WAL and SST files
(Section 2.2, Figure 2) and write nothing; each resolves a file's DEK from the
envelope DEK-ID through its *own* KeyClient, like an offloaded compaction
worker (Section 5.4).  One is the read half of ``DB``, not a second engine: the
same open (``recover_store``, its freshness gate), ``lookup``, ``scan_runs``.
"""

from __future__ import annotations

import contextlib

from repro.lsm.dbformat import MAX_SEQUENCE
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.iterator import scan_runs
from repro.lsm.options import Options
from repro.lsm.tables import Attribution, TableSet, lookup
from repro.lsm.version import recover_store
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
        self._tables = TableSet(self.env, path, self.provider, self.options)
        self._attributing = Attribution(self._tables, self.stats)
        self.refresh()

    def refresh(self) -> None:
        """Open the store again (writing nothing); ``RollbackError`` if stale."""
        self._versions, self._mem, __ = recover_store(
            self.env, self.path, self.provider, self.options, self.stats, writer=False
        )

    def get(self, key: bytes) -> bytes | None:
        with self._attributing:
            return lookup([self._mem], self._versions.current, self._tables,
                          self.stats, key, MAX_SEQUENCE)

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None) -> list[tuple[bytes, bytes]]:
        """A file is opened (over ``RemoteEnv``: a link ping and reads) when
        the cursor reaches it, not before: ``scan_runs``."""
        with self._attributing:
            return list(scan_runs(
                [self._mem.entries(start)],
                self._versions.current.runs_for_range(start, end),
                lambda meta, seek: self._tables.reader(meta).entries_from(seek),
                start, end, limit,
            ))

    def quarantined_files(self) -> list[int]:
        return sorted(self._tables.quarantined)

    def close(self) -> None:
        self._tables.close()

    def __exit__(self, *exc_info) -> None:
        self.close()
