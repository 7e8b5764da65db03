"""Read-only LSM-KVS instances over shared disaggregated storage.

During read-heavy phases, extra read-only instances launch in the compute
pool and serve queries straight from the shared WAL and SST files
(Section 2.2, Figure 2).  A read-only instance never creates, deletes, or
rewrites anything; it resolves every file's DEK from the envelope DEK-ID
through its *own* KeyClient, exactly like an offloaded compaction worker --
the same metadata-enabled sharing mechanism (Section 5.4).
"""

from __future__ import annotations

from repro.env.base import Env
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_PUT
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.iterator import scan_runs
from repro.lsm.memtable import make_memtable
from repro.lsm.options import Options
from repro.lsm.tables import TableSet
from repro.lsm.version import VersionSet
from repro.lsm.wal import replay_wals


class ReadOnlyInstance:
    """Serve gets/scans from another instance's persistent files."""

    def __init__(
        self,
        path: str,
        options: Options | None = None,
        provider: CryptoProvider | None = None,
    ):
        self.path = path
        self.options = options or Options()
        self.env: Env = self.options.env
        if self.env is None:
            raise ValueError("ReadOnlyInstance needs an explicit env")
        self.provider = provider or self.options.crypto_provider \
            or PlaintextCryptoProvider()
        self._tables = TableSet(self.env, path, self.provider, self.options)
        self.refresh()

    def refresh(self) -> None:
        """Re-read the MANIFEST and replay live WALs (no writes anywhere)."""
        self._versions = VersionSet(
            self.env, self.path, self.provider, self.options.num_levels
        )
        self._versions.recover()
        mem = make_memtable("dict")
        replay_wals(
            self.env, self.path, self.provider, self._versions.log_number, mem
        )
        self._mem = mem

    def get(self, key: bytes) -> bytes | None:
        result = self._mem.get(key)
        if result is None:
            for __, meta in self._versions.current.candidates_for_key(key):
                result = self._tables.reader(meta.number).get(key, MAX_SEQUENCE)
                if result is not None:
                    break
        if result is None:
            return None
        vtype, value = result
        return value if vtype == TYPE_PUT else None

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """A file's reader is obtained -- a link ping plus the open's reads
        over ``RemoteEnv`` -- when the cursor reaches the file: ``scan_runs``."""
        return list(scan_runs(
            [self._mem.entries(start)],
            self._versions.current.runs_for_range(start, end),
            lambda meta, seek: self._tables.reader(meta.number).entries_from(seek),
            start, end, limit,
        ))

    def close(self) -> None:
        self._tables.close()

    def __enter__(self) -> "ReadOnlyInstance":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
