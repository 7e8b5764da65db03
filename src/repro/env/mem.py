"""In-memory Env with crash simulation.

Models the buffered-I/O persistence semantics the paper's WAL discussion
depends on (Section 5.3):

- ``append`` puts bytes in the simulated OS page cache;
- ``sync`` makes everything appended so far durable;
- :meth:`MemEnv.crash_process` loses nothing at the Env level (the OS
  survives a process crash and will eventually flush its buffers);
- :meth:`MemEnv.crash_system` truncates every file to its last synced
  length -- unsynced page-cache bytes are gone.

Used pervasively by unit and recovery tests; also faster than disk for the
benchmark harness's pure-CPU comparisons.
"""

from __future__ import annotations

import posixpath
import threading

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.errors import IOError_


def _normalize(path: str) -> str:
    return posixpath.normpath("/" + path.replace("\\", "/"))


class _MemFile:
    __slots__ = ("data", "durable_len")

    def __init__(self):
        self.data = bytearray()
        self.durable_len = 0


class _MemWritableFile(WritableFile):
    def __init__(self, env: "MemEnv", path: str):
        self._env = env
        self._path = path
        self._closed = False

    def append(self, data: bytes) -> None:
        if self._closed:
            raise IOError_(f"write to closed file {self._path}")
        with self._env._lock:
            self._env._files[self._path].data.extend(data)

    def sync(self) -> None:
        with self._env._lock:
            mem_file = self._env._files.get(self._path)
            if mem_file is not None:
                mem_file.durable_len = len(mem_file.data)
        self._env.sync_count += 1

    def close(self) -> None:
        self._closed = True

    def tell(self) -> int:
        with self._env._lock:
            return len(self._env._files[self._path].data)


class _MemRandomAccessFile(RandomAccessFile):
    """Holds the file object directly: like a POSIX fd, an open handle keeps
    working after the path is unlinked (the table cache relies on this)."""

    def __init__(self, env: "MemEnv", mem_file: "_MemFile"):
        self._env = env
        self._file = mem_file

    def read(self, offset: int, length: int) -> bytes:
        with self._env._lock:
            return bytes(self._file.data[offset:offset + length])

    def size(self) -> int:
        with self._env._lock:
            return len(self._file.data)

    def close(self) -> None:
        pass


class MemEnv(Env):
    """Thread-safe in-memory filesystem with crash simulation."""

    def __init__(self):
        self._files: dict[str, _MemFile] = {}
        self._dirs: set[str] = {"/"}
        self._lock = threading.RLock()
        self.sync_count = 0

    def new_writable_file(self, path: str) -> WritableFile:
        path = _normalize(path)
        with self._lock:
            self._files[path] = _MemFile()
        return _MemWritableFile(self, path)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        path = _normalize(path)
        with self._lock:
            mem_file = self._files.get(path)
            if mem_file is None:
                raise IOError_(f"no such file: {path}")
        return _MemRandomAccessFile(self, mem_file)

    def delete_file(self, path: str) -> None:
        with self._lock:
            self._files.pop(_normalize(path), None)

    def rename_file(self, src: str, dst: str) -> None:
        src, dst = _normalize(src), _normalize(dst)
        with self._lock:
            mem_file = self._files.pop(src, None)
            if mem_file is None:
                raise IOError_(f"no such file: {src}")
            self._files[dst] = mem_file

    def file_exists(self, path: str) -> bool:
        path = _normalize(path)
        with self._lock:
            return path in self._files or path in self._dirs

    def list_dir(self, path: str) -> list[str]:
        prefix = _normalize(path)
        if not prefix.endswith("/"):
            prefix += "/"
        with self._lock:
            names = {
                file_path[len(prefix):].split("/", 1)[0]
                for file_path in self._files
                if file_path.startswith(prefix)
            }
        return sorted(names)

    def file_size(self, path: str) -> int:
        path = _normalize(path)
        with self._lock:
            mem_file = self._files.get(path)
            if mem_file is None:
                raise IOError_(f"no such file: {path}")
            return len(mem_file.data)

    def mkdirs(self, path: str) -> None:
        with self._lock:
            self._dirs.add(_normalize(path))

    # -- crash simulation ---------------------------------------------------

    def fork(self, durable_only: bool = True) -> "MemEnv":
        """An independent copy of the filesystem as a crash would leave it.

        ``durable_only=True`` keeps only synced bytes per file (the image a
        *system* crash at this instant would leave on disk); ``False`` keeps
        the page cache too (a *process* crash).  The model test's
        ``crash_at`` rule calls this from a syncpoint callback and later
        reopens a DB on the copy -- killing nothing, but recovering from
        exactly the interrupted state.
        """
        forked = MemEnv()
        with self._lock:
            for path, mem_file in self._files.items():
                copy = _MemFile()
                keep = mem_file.durable_len if durable_only else len(mem_file.data)
                copy.data = bytearray(mem_file.data[:keep])
                copy.durable_len = min(mem_file.durable_len, keep)
                forked._files[path] = copy
            forked._dirs = set(self._dirs)
        return forked

    def crash_process(self) -> None:
        """Simulate a process crash: OS page cache survives, so no data is
        lost at this layer (application-level buffers are lost by their
        owners, not here)."""

    def crash_system(self) -> None:
        """Simulate a whole-machine crash: only synced bytes survive."""
        with self._lock:
            for mem_file in self._files.values():
                del mem_file.data[mem_file.durable_len:]

    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(f.data) for f in self._files.values())
