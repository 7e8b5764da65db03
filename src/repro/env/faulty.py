"""Fault injection: make storage fail on demand.

Wraps any Env and injects failures on both sides of the I/O boundary:

- **write faults** (append/sync/create/rename/delete/close) once a
  configurable countdown expires or whenever a path matches a predicate;
- **sync-only faults**: data buffers fine, durability fails -- the shape
  of a dying disk that still accepts writes into its cache;
- **read faults**: transient ``IOError_`` from ``RandomAccessFile.read``
  (count-scheduled or probabilistic) and **bit flips** that corrupt the
  returned ciphertext, which the envelope/MAC layer must detect rather
  than serve;
- **torn syncs**: a ``sync`` that *reports* success but, come a system
  crash, turns out to have persisted all but the last ``drop_bytes`` of
  the file -- the lying-disk case crash recovery has to survive.

All randomness comes from a seeded RNG so a fault schedule replays exactly.
Used by the failure-handling tests and the model test's fault windows: a
failed flush or compaction must surface as a background error to writers,
never corrupt state, and the database must recover cleanly on reopen.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

from repro.env.base import Env, RandomAccessFile, WritableFile
from repro.env.base import EnvWrapper, RandomAccessFileWrapper, WritableFileWrapper
from repro.errors import IOError_


class FaultInjectionEnv(EnvWrapper):
    """Env wrapper that injects storage failures on demand."""

    def __init__(self, inner: Env, seed: int = 0):
        super().__init__(inner)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        # write-side
        self._writes_until_failure: int | None = None
        self._path_predicate: Callable[[str], bool] | None = None
        self._armed = False
        self._sync_fault: dict | None = None
        # read-side
        self._read_fault: dict | None = None
        self._flip_fault: dict | None = None
        self._read_error_rate = 0.0
        self._read_flip_rate = 0.0
        # torn syncs
        self._torn_arm: dict | None = None
        self._torn: dict[str, int] = {}
        # counters (assertable by tests)
        self.injected_failures = 0
        self.injected_read_failures = 0
        self.injected_bit_flips = 0
        self.torn_syncs = 0

    # -- fault control ------------------------------------------------------

    def fail_after_writes(self, count: int) -> None:
        """Arm: the (count+1)-th write-side operation fails, and every one
        after it until :meth:`heal` is called."""
        with self._lock:
            self._writes_until_failure = count
            self._armed = True

    def fail_paths(self, predicate: Callable[[str], bool]) -> None:
        """Arm: any write-side operation on a matching path fails."""
        with self._lock:
            self._path_predicate = predicate
            self._armed = True

    def fail_syncs(
        self, after: int = 0, predicate: Callable[[str], bool] | None = None
    ) -> None:
        """Arm sync-only faults: appends succeed, durability fails.

        The first ``after`` matching syncs succeed; every later one raises
        until :meth:`heal`."""
        with self._lock:
            self._sync_fault = {"after": after, "predicate": predicate}

    def fail_reads(
        self,
        times: int = 1,
        after: int = 0,
        predicate: Callable[[str], bool] | None = None,
    ) -> None:
        """Arm transient read faults: after ``after`` successful matching
        reads, the next ``times`` reads raise ``IOError_``, then the fault
        self-disarms (the transient blip the read path's retry absorbs)."""
        with self._lock:
            self._read_fault = {
                "after": after, "times": times, "predicate": predicate,
            }

    def set_read_error_rate(self, rate: float) -> None:
        """Each read independently fails with probability ``rate``."""
        with self._lock:
            self._read_error_rate = rate

    def flip_read_bits(
        self,
        times: int = 1,
        after: int = 0,
        predicate: Callable[[str], bool] | None = None,
    ) -> None:
        """Arm bit flips: after ``after`` clean matching reads, the next
        ``times`` reads come back with one random bit inverted -- silent
        ciphertext corruption the MAC/checksum layer must catch."""
        with self._lock:
            self._flip_fault = {
                "after": after, "times": times, "predicate": predicate,
            }

    def set_read_flip_rate(self, rate: float) -> None:
        """Each read independently gets one flipped bit with probability
        ``rate``."""
        with self._lock:
            self._read_flip_rate = rate

    def arm_torn_sync(
        self, drop_bytes: int, predicate: Callable[[str], bool] | None = None
    ) -> None:
        """Arm torn syncs: every later matching ``sync`` *claims* success
        but, should :meth:`crash_system` hit before a clean sync replaces
        it, the file loses its last ``drop_bytes`` bytes."""
        with self._lock:
            self._torn_arm = {"drop": drop_bytes, "predicate": predicate}

    def heal(self) -> None:
        """Disarm all injected faults.

        Torn-sync *records* (syncs that already lied) survive healing --
        the lie happened; only a future crash reveals it.  They are
        consumed by :meth:`crash_system` or dropped by a genuine re-sync.
        """
        with self._lock:
            self._writes_until_failure = None
            self._path_predicate = None
            self._armed = False
            self._sync_fault = None
            self._read_fault = None
            self._flip_fault = None
            self._read_error_rate = 0.0
            self._read_flip_rate = 0.0
            self._torn_arm = None

    # -- fault checks --------------------------------------------------------

    def _check_write(self, path: str) -> None:
        with self._lock:
            if not self._armed:
                return
            if self._path_predicate is not None and self._path_predicate(path):
                self.injected_failures += 1
                raise IOError_(f"injected fault writing {path}")
            if self._writes_until_failure is not None:
                if self._writes_until_failure <= 0:
                    self.injected_failures += 1
                    raise IOError_(f"injected fault writing {path}")
                self._writes_until_failure -= 1

    def _check_sync(self, path: str) -> None:
        """Sync-specific faults: raise (sync-only fault) or note a tear.

        A torn sync still calls through -- it *is* durable at the inner
        env -- but records that a later :meth:`crash_system` must drop
        the tail this sync claimed to have persisted."""
        with self._lock:
            fault = self._sync_fault
            if fault is not None and (
                fault["predicate"] is None or fault["predicate"](path)
            ):
                if fault["after"] > 0:
                    fault["after"] -= 1
                else:
                    self.injected_failures += 1
                    raise IOError_(f"injected sync fault on {path}")
            torn = self._torn_arm
            if torn is not None and (
                torn["predicate"] is None or torn["predicate"](path)
            ):
                self._torn[path] = torn["drop"]
                self.torn_syncs += 1
            else:
                # An honest sync on this path supersedes any recorded tear.
                self._torn.pop(path, None)

    def _check_read(self, path: str, data: bytes) -> bytes:
        with self._lock:
            fault = self._read_fault
            if fault is not None and (
                fault["predicate"] is None or fault["predicate"](path)
            ):
                if fault["after"] > 0:
                    fault["after"] -= 1
                elif fault["times"] > 0:
                    fault["times"] -= 1
                    if fault["times"] == 0:
                        self._read_fault = None
                    self.injected_read_failures += 1
                    raise IOError_(f"injected read fault on {path}")
            if self._read_error_rate and self._rng.random() < self._read_error_rate:
                self.injected_read_failures += 1
                raise IOError_(f"injected read fault on {path}")
            flip = False
            flip_fault = self._flip_fault
            if flip_fault is not None and (
                flip_fault["predicate"] is None or flip_fault["predicate"](path)
            ):
                if flip_fault["after"] > 0:
                    flip_fault["after"] -= 1
                elif flip_fault["times"] > 0:
                    flip_fault["times"] -= 1
                    if flip_fault["times"] == 0:
                        self._flip_fault = None
                    flip = True
            if (
                not flip
                and self._read_flip_rate
                and self._rng.random() < self._read_flip_rate
            ):
                flip = True
            if flip and data:
                position = self._rng.randrange(len(data) * 8)
                corrupted = bytearray(data)
                corrupted[position // 8] ^= 1 << (position % 8)
                self.injected_bit_flips += 1
                return bytes(corrupted)
        return data

    # -- Env ------------------------------------------------------------------

    def new_writable_file(self, path: str) -> WritableFile:
        self._check_write(path)
        return _FaultyWritableFile(
            self.inner.new_writable_file(path), self, path
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _FaultyRandomAccessFile(
            self.inner.new_random_access_file(path), self, path
        )

    def delete_file(self, path: str) -> None:
        self._check_write(path)
        self.inner.delete_file(path)
        with self._lock:
            self._torn.pop(path, None)

    def rename_file(self, src: str, dst: str) -> None:
        self._check_write(dst)
        self.inner.rename_file(src, dst)

    # -- crash plumbing ------------------------------------------------------

    def crash_system(self) -> None:
        """Crash the inner env, then make every recorded torn sync true:
        the bytes those syncs claimed durable were never all on disk."""
        self.inner.crash_system()
        with self._lock:
            torn, self._torn = self._torn, {}
        for path, drop in torn.items():
            if not drop or not self.inner.file_exists(path):
                continue
            data = self.inner.read_file(path)
            kept = data[: max(0, len(data) - drop)]
            self.inner.delete_file(path)
            self.inner.write_file(path, kept)

    def __getattr__(self, name):
        # Inspection helpers of the wrapped env (fork, sync_count, ...).
        return getattr(self.inner, name)


class _FaultyWritableFile(WritableFileWrapper):
    def __init__(self, inner: WritableFile, env: FaultInjectionEnv, path: str):
        super().__init__(inner)
        self._env = env
        self._path = path

    def append(self, data: bytes) -> None:
        self._env._check_write(self._path)
        self._inner.append(data)

    def sync(self) -> None:
        self._env._check_write(self._path)
        self._env._check_sync(self._path)
        self._inner.sync()

    def close(self) -> None:
        self._env._check_write(self._path)
        self._inner.close()


class _FaultyRandomAccessFile(RandomAccessFileWrapper):
    def __init__(self, inner: RandomAccessFile, env: FaultInjectionEnv, path: str):
        super().__init__(inner)
        self._env = env
        self._path = path

    def read(self, offset: int, length: int) -> bytes:
        return self._env._check_read(
            self._path, self._inner.read(offset, length)
        )
