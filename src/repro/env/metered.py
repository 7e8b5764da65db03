"""MeteredEnv: I/O accounting per file class.

Counts bytes and operations for reads and writes, classified by file type
(WAL / SST / MANIFEST / other).  Table 3 of the paper (read/write GiB per
server and operation) is produced from exactly these counters.  Namespace
operations (delete / rename / list) are counted too, so compaction-cleanup
I/O shows up in the same accounting; data-path operations are additionally
wall-timed into ``io.*_s`` histograms and charged to the active
cost-attribution context (``repro.obs.costs``) as ``io`` time.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.base import EnvWrapper, RandomAccessFileWrapper, WritableFileWrapper
from repro.obs import costs
from repro.util.stats import StatsRegistry


def classify_path(path: str) -> str:
    """Classify a database file path into wal/sst/manifest/other."""
    name = path.rsplit("/", 1)[-1].lower()
    if name.endswith(".log") or name.startswith("wal"):
        return "wal"
    if name.endswith(".sst"):
        return "sst"
    if name.startswith("manifest") or name == "current":
        return "manifest"
    return "other"


class _MeteredWritableFile(WritableFileWrapper):
    def __init__(self, inner: WritableFile, stats: StatsRegistry, file_class: str):
        super().__init__(inner)
        self._stats = stats
        self._class = file_class

    def append(self, data: bytes) -> None:
        start = time.perf_counter()
        self._inner.append(data)
        elapsed = time.perf_counter() - start
        self._stats.counter(f"io.write.bytes.{self._class}").add(len(data))
        self._stats.counter(f"io.write.ops.{self._class}").add(1)
        self._stats.histogram(f"io.write_s.{self._class}").record(elapsed)
        costs.charge("io", elapsed, len(data))

    def sync(self) -> None:
        start = time.perf_counter()
        self._inner.sync()
        elapsed = time.perf_counter() - start
        self._stats.counter(f"io.sync.ops.{self._class}").add(1)
        self._stats.histogram(f"io.sync_s.{self._class}").record(elapsed)
        costs.charge("io", elapsed)


class _MeteredRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, stats: StatsRegistry, file_class: str):
        super().__init__(inner)
        self._stats = stats
        self._class = file_class

    def read(self, offset: int, length: int) -> bytes:
        start = time.perf_counter()
        data = self._inner.read(offset, length)
        elapsed = time.perf_counter() - start
        self._stats.counter(f"io.read.bytes.{self._class}").add(len(data))
        self._stats.counter(f"io.read.ops.{self._class}").add(1)
        self._stats.histogram(f"io.read_s.{self._class}").record(elapsed)
        costs.charge("io", elapsed, len(data))
        return data


class MeteredEnv(EnvWrapper):
    """Wrap any Env, counting per-class read/write bytes and operations."""

    def __init__(
        self,
        inner: Env,
        stats: StatsRegistry | None = None,
        classify: Callable[[str], str] = classify_path,
    ):
        super().__init__(inner)
        self.stats = stats or StatsRegistry()
        self._classify = classify

    def new_writable_file(self, path: str) -> WritableFile:
        return _MeteredWritableFile(
            self.inner.new_writable_file(path), self.stats, self._classify(path)
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _MeteredRandomAccessFile(
            self.inner.new_random_access_file(path), self.stats, self._classify(path)
        )

    def delete_file(self, path: str) -> None:
        self.stats.counter(f"io.delete.ops.{self._classify(path)}").add(1)
        self.inner.delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self.stats.counter(f"io.rename.ops.{self._classify(dst)}").add(1)
        self.inner.rename_file(src, dst)

    def list_dir(self, path: str) -> list[str]:
        self.stats.counter("io.list.ops").add(1)
        return self.inner.list_dir(path)

    # -- reporting ----------------------------------------------------------

    def written_bytes(self, file_class: str | None = None) -> int:
        if file_class is not None:
            return self.stats.counter(f"io.write.bytes.{file_class}").value
        return sum(
            self.stats.counter(f"io.write.bytes.{c}").value
            for c in ("wal", "sst", "manifest", "other")
        )

    def read_bytes(self, file_class: str | None = None) -> int:
        if file_class is not None:
            return self.stats.counter(f"io.read.bytes.{file_class}").value
        return sum(
            self.stats.counter(f"io.read.bytes.{c}").value
            for c in ("wal", "sst", "manifest", "other")
        )

    def namespace_ops(self, kind: str, file_class: str | None = None) -> int:
        """Count of delete/rename/list operations (``kind`` names one)."""
        if kind == "list":
            return self.stats.counter("io.list.ops").value
        if file_class is not None:
            return self.stats.counter(f"io.{kind}.ops.{file_class}").value
        return sum(
            self.stats.counter(f"io.{kind}.ops.{c}").value
            for c in ("wal", "sst", "manifest", "other")
        )
