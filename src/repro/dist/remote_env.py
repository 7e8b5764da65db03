"""Remote storage: an Env whose bytes cross a simulated network link.

:class:`StorageServer` is the disaggregated storage cluster (it holds the
actual bytes, HDFS-style).  :class:`RemoteEnv` is the client-side stub a
compute-server DB uses; every append/read pays the link's latency and
bandwidth.  :class:`TieredEnv` routes WAL files to a local Env and
everything else to the remote one (the tiered-storage optimization of
Section 2.2).
"""

from __future__ import annotations

from typing import Callable

from repro.dist.network import NetworkLink
from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.base import EnvWrapper, RandomAccessFileWrapper, WritableFileWrapper
from repro.env.mem import MemEnv
from repro.env.metered import classify_path


class StorageServer:
    """The storage cluster: owns the backing Env and per-server I/O stats."""

    def __init__(self, env: Env | None = None, name: str = "storage-1"):
        self.env = env if env is not None else MemEnv()
        self.name = name

    def local_env(self) -> Env:
        """Direct (link-free) access, e.g. for an offloaded compaction
        worker running *on* the storage server."""
        return self.env


class _RemoteWritableFile(WritableFileWrapper):
    def __init__(self, inner: WritableFile, link: NetworkLink):
        super().__init__(inner)
        self._link = link

    def append(self, data: bytes) -> None:
        self._link.send(len(data))
        self._inner.append(data)

    def sync(self) -> None:
        self._link.ping()
        self._inner.sync()


class _RemoteRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, link: NetworkLink):
        super().__init__(inner)
        self._link = link

    def read(self, offset: int, length: int) -> bytes:
        data = self._inner.read(offset, length)
        self._link.receive(len(data))
        return data


class RemoteEnv(EnvWrapper):
    """Compute-side view of the storage server, through the link."""

    def __init__(self, server: StorageServer, link: NetworkLink):
        super().__init__(server.env)
        self.server = server
        self.link = link

    def new_writable_file(self, path: str) -> WritableFile:
        self.link.ping()
        return _RemoteWritableFile(self.inner.new_writable_file(path), self.link)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        self.link.ping()
        return _RemoteRandomAccessFile(
            self.inner.new_random_access_file(path), self.link
        )

    def delete_file(self, path: str) -> None:
        self.link.ping()
        self.inner.delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self.link.ping()
        self.inner.rename_file(src, dst)

    def file_exists(self, path: str) -> bool:
        self.link.ping()
        return self.inner.file_exists(path)

    def list_dir(self, path: str) -> list[str]:
        self.link.ping()
        return self.inner.list_dir(path)

    def file_size(self, path: str) -> int:
        self.link.ping()
        return self.inner.file_size(path)

    def mkdirs(self, path: str) -> None:
        self.link.ping()
        self.inner.mkdirs(path)


class TieredEnv(Env):
    """Route files between a local and a remote Env by classification.

    Default routing keeps WALs on fast local storage and pushes SSTs and
    metadata to disaggregated storage.
    """

    def __init__(
        self,
        local: Env,
        remote: Env,
        route_local: Callable[[str], bool] | None = None,
    ):
        self.local = local
        self.remote = remote
        self._route_local = route_local or (
            lambda path: classify_path(path) == "wal"
        )

    def _env_for(self, path: str) -> Env:
        return self.local if self._route_local(path) else self.remote

    def new_writable_file(self, path: str) -> WritableFile:
        return self._env_for(path).new_writable_file(path)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return self._env_for(path).new_random_access_file(path)

    def delete_file(self, path: str) -> None:
        self._env_for(path).delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self._env_for(src).rename_file(src, dst)

    def file_exists(self, path: str) -> bool:
        return self._env_for(path).file_exists(path)

    def list_dir(self, path: str) -> list[str]:
        names = set()
        for env in (self.local, self.remote):
            try:
                names.update(env.list_dir(path))
            except Exception:  # noqa: BLE001 - side may lack the directory
                pass
        return sorted(names)

    def file_size(self, path: str) -> int:
        return self._env_for(path).file_size(path)

    def mkdirs(self, path: str) -> None:
        self.local.mkdirs(path)
        self.remote.mkdirs(path)
