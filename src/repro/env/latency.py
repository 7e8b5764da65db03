"""LatencyEnv: inject per-operation latency and bandwidth limits.

A :class:`LatencyModel` charges ``op_latency_s`` per I/O call plus
``1/bandwidth`` per byte through the configured clock.  Composing this under
a remote Env reproduces the disaggregated-storage behaviour the paper
leans on: network time dominates and absorbs encryption overhead
(Section 5.6, Figures 19-24).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.base import EnvWrapper, RandomAccessFileWrapper, WritableFileWrapper
from repro.util.clock import Clock, RealClock


@dataclass
class LatencyModel:
    """Cost of touching storage: fixed per op + proportional to bytes."""

    read_op_s: float = 0.0
    write_op_s: float = 0.0
    bandwidth_bytes_per_s: float = 0.0  # 0 means unlimited

    def read_cost(self, nbytes: int) -> float:
        return self.read_op_s + self._transfer(nbytes)

    def write_cost(self, nbytes: int) -> float:
        return self.write_op_s + self._transfer(nbytes)

    def _transfer(self, nbytes: int) -> float:
        if self.bandwidth_bytes_per_s <= 0:
            return 0.0
        return nbytes / self.bandwidth_bytes_per_s


class _LatencyWritableFile(WritableFileWrapper):
    def __init__(self, inner: WritableFile, model: LatencyModel, clock: Clock):
        super().__init__(inner)
        self._model = model
        self._clock = clock

    def append(self, data: bytes) -> None:
        self._clock.sleep(self._model.write_cost(len(data)))
        self._inner.append(data)

    def sync(self) -> None:
        self._clock.sleep(self._model.write_op_s)
        self._inner.sync()


class _LatencyRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, model: LatencyModel, clock: Clock):
        super().__init__(inner)
        self._model = model
        self._clock = clock

    def read(self, offset: int, length: int) -> bytes:
        data = self._inner.read(offset, length)
        self._clock.sleep(self._model.read_cost(len(data)))
        return data


class LatencyEnv(EnvWrapper):
    """Wrap any Env, charging latency for every data operation."""

    def __init__(self, inner: Env, model: LatencyModel, clock: Clock | None = None):
        super().__init__(inner)
        self.model = model
        self.clock = clock or RealClock()

    def new_writable_file(self, path: str) -> WritableFile:
        self.clock.sleep(self.model.write_op_s)  # open round-trip
        return _LatencyWritableFile(
            self.inner.new_writable_file(path), self.model, self.clock
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        self.clock.sleep(self.model.read_op_s)  # open round-trip
        return _LatencyRandomAccessFile(
            self.inner.new_random_access_file(path), self.model, self.clock
        )

    def delete_file(self, path: str) -> None:
        self.clock.sleep(self.model.write_op_s)
        self.inner.delete_file(path)

    def rename_file(self, src: str, dst: str) -> None:
        self.clock.sleep(self.model.write_op_s)
        self.inner.rename_file(src, dst)
