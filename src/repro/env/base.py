"""Abstract Env interface, file handle types, and their forwarding wrappers.

Layers that decorate an Env (metering, latency, faults, encryption, the
network link) subclass :class:`EnvWrapper` and the two file wrappers --
RocksDB's ``EnvWrapper`` idiom -- and override only the calls they change.
"""

from __future__ import annotations


class WritableFile:
    """An append-only file handle.

    ``append`` hands bytes to the (possibly simulated) OS; ``sync`` makes
    everything appended so far durable.  The distinction matters: the paper's
    WAL analysis rests on buffered I/O surviving *process* crashes but not
    *system* crashes (Section 5.3).
    """

    def append(self, data: bytes) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def tell(self) -> int:
        """Bytes appended so far (the current logical file size)."""
        raise NotImplementedError

    def __enter__(self) -> "WritableFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RandomAccessFile:
    """A positional-read file handle (how SST blocks are fetched)."""

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "RandomAccessFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Env:
    """Filesystem-like interface every storage backend implements."""

    def new_writable_file(self, path: str) -> WritableFile:
        raise NotImplementedError

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        raise NotImplementedError

    def delete_file(self, path: str) -> None:
        raise NotImplementedError

    def rename_file(self, src: str, dst: str) -> None:
        raise NotImplementedError

    def file_exists(self, path: str) -> bool:
        raise NotImplementedError

    def list_dir(self, path: str) -> list[str]:
        raise NotImplementedError

    def file_size(self, path: str) -> int:
        raise NotImplementedError

    def mkdirs(self, path: str) -> None:
        raise NotImplementedError

    # -- convenience helpers shared by all implementations -----------------

    def read_file(self, path: str) -> bytes:
        """Read a whole file."""
        with self.new_random_access_file(path) as handle:
            return handle.read(0, handle.size())

    def write_file(self, path: str, data: bytes) -> None:
        """Create/replace ``path`` with ``data``, synced."""
        with self.new_writable_file(path) as handle:
            handle.append(data)
            handle.sync()


class WritableFileWrapper(WritableFile):
    """Forwards every call to ``inner``."""

    def __init__(self, inner: WritableFile):
        self._inner = inner

    def append(self, data: bytes) -> None:
        self._inner.append(data)

    def sync(self) -> None:
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    def tell(self) -> int:
        return self._inner.tell()


class RandomAccessFileWrapper(RandomAccessFile):
    """Forwards every call to ``inner``."""

    def __init__(self, inner: RandomAccessFile):
        self._inner = inner

    def read(self, offset: int, length: int) -> bytes:
        return self._inner.read(offset, length)

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


class EnvWrapper(Env):
    """Forwards every call to ``inner``.

    ``read_file``/``write_file`` are not forwarded: they stay built on this
    object's own ``new_*_file``, so a subclass that wraps file handles
    (decrypts, meters, delays) covers whole-file access too.
    """

    def __init__(self, inner: Env):
        self.inner = inner

    def new_writable_file(self, path: str) -> WritableFile:
        return self.inner.new_writable_file(path)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return self.inner.new_random_access_file(path)

    def delete_file(self, path: str) -> None:
        self.inner.delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self.inner.rename_file(src, dst)

    def file_exists(self, path: str) -> bool:
        return self.inner.file_exists(path)

    def list_dir(self, path: str) -> list[str]:
        return self.inner.list_dir(path)

    def file_size(self, path: str) -> int:
        return self.inner.file_size(path)

    def mkdirs(self, path: str) -> None:
        self.inner.mkdirs(path)
