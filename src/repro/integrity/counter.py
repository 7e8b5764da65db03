"""Trusted monotonic counters: the one thing a rollback cannot rewind.

SHIELD++'s freshness protection needs a small piece of state outside the
storage adversary's reach: a monotonic counter bound to the latest Merkle
root of the live file set (``FreshnessAnchor`` decides the bytes; the
counter keeps them opaque).  Real deployments put this in a TPM NV counter,
an SGX monotonic counter, or a replicated quorum service; the
reproduction simulates it behind a pluggable interface (the same pattern
as ``Env``) with a file-backed default whose file lives *outside* the
database directory -- the trusted domain boundary, not a durability
trick.  A counter remembers its previous root as well as the current one:
``repro.integrity.freshness`` says why.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.util.checksum import masked_crc32
from repro.util.coding import (
    decode_fixed32,
    decode_length_prefixed,
    decode_varint64,
    encode_fixed32,
    encode_length_prefixed,
    encode_varint64,
)
_MAGIC = b"TCTR"


@dataclass(frozen=True)
class CounterState:
    """One trusted-counter reading: value plus its bound roots."""

    value: int
    root: bytes
    prev_root: bytes


class TrustedCounter:
    """Interface every counter backend implements (pluggable, like Env)."""

    def read(self) -> CounterState | None:
        """Current state, or None if the counter was never advanced."""
        raise NotImplementedError

    def advance(self, root: bytes) -> CounterState:
        """Monotonically advance, binding ``root`` as the fresh anchor."""
        raise NotImplementedError


class MemoryTrustedCounter(TrustedCounter):
    """In-process counter (tests, single-run benchmarks)."""

    def __init__(self):
        self._state: CounterState | None = None

    def read(self) -> CounterState | None:
        return self._state

    def advance(self, root: bytes) -> CounterState:
        prev = self._state
        self._state = CounterState(
            value=(prev.value + 1) if prev else 1,
            root=root,
            prev_root=prev.root if prev else b"",
        )
        return self._state

    def fork(self) -> "MemoryTrustedCounter":
        """An independent copy (crash-instant snapshots).

        A real trusted counter survives the host's crash untouched, so
        the model test's ``crash_at`` rule forks it at the kill instant
        alongside the env and the KDS.
        """
        clone = MemoryTrustedCounter()
        clone._state = self._state
        return clone


class FileTrustedCounter(TrustedCounter):
    """File-backed counter with atomic (write-temp, rename) persistence.

    The file format is ``TCTR | value varint | root lp | prev_root lp |
    crc fixed32``; a bad magic or CRC raises ``CorruptionError`` rather
    than silently restarting the counter at zero -- a zeroed counter
    would be a rollback amplifier, not a recovery.
    """

    def __init__(self, env, path: str):
        self._env = env
        self.path = path

    def read(self) -> CounterState | None:
        if not self._env.file_exists(self.path):
            return None
        raw = self._env.read_file(self.path)
        try:
            if raw[:4] != _MAGIC:
                raise CorruptionError("bad trusted-counter magic")
            value, pos = decode_varint64(raw, 4)
            root, pos = decode_length_prefixed(raw, pos)
            prev_root, pos = decode_length_prefixed(raw, pos)
            crc, end = decode_fixed32(raw, pos)
        except CorruptionError:
            raise
        except Exception as exc:  # noqa: BLE001 - any parse slip is corruption
            raise CorruptionError(f"corrupt trusted-counter file: {exc}")
        if masked_crc32(raw[:pos]) != crc:
            raise CorruptionError("trusted-counter checksum mismatch")
        return CounterState(value=value, root=root, prev_root=prev_root)

    def advance(self, root: bytes) -> CounterState:
        prev = self.read()
        state = CounterState(
            value=(prev.value + 1) if prev else 1,
            root=root,
            prev_root=prev.root if prev else b"",
        )
        body = (
            _MAGIC
            + encode_varint64(state.value)
            + encode_length_prefixed(state.root)
            + encode_length_prefixed(state.prev_root)
        )
        payload = body + encode_fixed32(masked_crc32(body))
        tmp = self.path + ".tmp"
        self._env.write_file(tmp, payload)
        self._env.rename_file(tmp, self.path)
        return state
