"""Direct-I/O alignment modelling.

The paper notes the one engine-visible requirement of the instance-level
design: systems using direct I/O (RocksDB for compaction/reads) need block
alignment preserved by the encryption layer.  :class:`AlignedReadEnv`
models a direct-I/O storage device: every physical read must start and end
on an ``alignment`` boundary, so the wrapper expands requests and slices
the result, counting the amplification.

Because the CTR-based EncryptedEnv is length-preserving and seekable at
byte granularity, it composes with this wrapper in either order -- the
property ``test_encfs_preserves_alignment`` pins down.
"""

from __future__ import annotations

from repro.env.base import Env, EnvWrapper, RandomAccessFile, RandomAccessFileWrapper
from repro.errors import InvalidArgumentError
from repro.util.stats import StatsRegistry

DEFAULT_ALIGNMENT = 4096


class _AlignedRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, alignment: int,
                 stats: StatsRegistry):
        super().__init__(inner)
        self._alignment = alignment
        self._stats = stats

    def read(self, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        alignment = self._alignment
        aligned_start = (offset // alignment) * alignment
        end = offset + length
        aligned_end = ((end + alignment - 1) // alignment) * alignment
        raw = self._inner.read(aligned_start, aligned_end - aligned_start)
        self._stats.counter("alignedio.requested_bytes").add(length)
        self._stats.counter("alignedio.physical_bytes").add(len(raw))
        start_in_raw = offset - aligned_start
        return raw[start_in_raw:start_in_raw + length]


class AlignedReadEnv(EnvWrapper):
    """Enforce aligned physical reads (direct-I/O device model)."""

    def __init__(self, inner: Env, alignment: int = DEFAULT_ALIGNMENT):
        if alignment <= 0 or alignment & (alignment - 1):
            raise InvalidArgumentError("alignment must be a power of two")
        super().__init__(inner)
        self.alignment = alignment
        self.stats = StatsRegistry()

    def read_amplification(self) -> float:
        requested = self.stats.counter("alignedio.requested_bytes").value
        physical = self.stats.counter("alignedio.physical_bytes").value
        return physical / requested if requested else 1.0

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _AlignedRandomAccessFile(
            self.inner.new_random_access_file(path), self.alignment, self.stats
        )
