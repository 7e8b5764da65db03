"""Memtables: the in-memory self-sorting write buffer.

Two implementations behind one interface:

- :class:`SkipListMemtable` -- a real probabilistic skiplist, the structure
  RocksDB and the paper describe (Figure 1).
- :class:`DictMemtable` -- hash map with lazy sorting; faster point ops in
  Python, used when benchmarks want engine overhead minimized.

Entries are versioned internally as (user_key asc, sequence desc) so a
memtable holds every write it received and reads can run at a snapshot.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.lsm.dbformat import MAX_SEQUENCE, internal_compare_key

_ENTRY_OVERHEAD = 24  # rough per-entry bookkeeping charge


class Memtable:
    """Interface shared by the memtable implementations."""

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        raise NotImplementedError

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        """Return (vtype, value) for the newest version of ``key`` at or
        below ``max_seq``, or None if the key is absent."""
        raise NotImplementedError

    def entries(
        self, start: bytes = b""
    ) -> Iterator[tuple[bytes, int, int, bytes]]:
        """Yield every (key, seq, vtype, value) with ``key >= start``,
        sorted (key asc, seq desc), without visiting the keys before it."""
        raise NotImplementedError

    def approximate_size(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _SkipNode:
    __slots__ = ("sort_key", "entry", "forward")

    def __init__(self, sort_key, entry, level: int):
        self.sort_key = sort_key
        self.entry = entry
        self.forward: list = [None] * level


class SkipListMemtable(Memtable):
    """Classic skiplist keyed by (user_key, MAX_SEQUENCE - seq)."""

    MAX_LEVEL = 12
    P = 0.25

    def __init__(self, seed: int | None = None):
        self._head = _SkipNode(None, None, self.MAX_LEVEL)
        self._level = 1
        self._rand = random.Random(seed)
        self._count = 0
        self._bytes = 0

    def _random_level(self) -> int:
        level = 1
        while level < self.MAX_LEVEL and self._rand.random() < self.P:
            level += 1
        return level

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        sort_key = internal_compare_key(key, seq)
        update = [self._head] * self.MAX_LEVEL
        node = self._head
        for level in range(self._level - 1, -1, -1):
            while (
                node.forward[level] is not None
                and node.forward[level].sort_key < sort_key
            ):
                node = node.forward[level]
            update[level] = node
        new_level = self._random_level()
        if new_level > self._level:
            self._level = new_level
        new_node = _SkipNode(sort_key, (key, seq, vtype, value), new_level)
        for level in range(new_level):
            new_node.forward[level] = update[level].forward[level]
            update[level].forward[level] = new_node
        self._count += 1
        self._bytes += len(key) + len(value) + _ENTRY_OVERHEAD

    def _seek(self, target: tuple[bytes, int]) -> _SkipNode | None:
        """The first node whose sort key is >= ``target``.

        Lock-free read discipline: every forward pointer is read exactly
        once into a local before being tested *and* used.  Re-reading the
        pointer after the test races with a concurrent insert (writers are
        serialized by the DB mutex, readers are not) and can surface a
        just-inserted smaller key as the result.
        """
        node = self._head
        next_node = None
        for level in range(self._level - 1, -1, -1):
            next_node = node.forward[level]
            while next_node is not None and next_node.sort_key < target:
                node = next_node
                next_node = node.forward[level]
        return next_node

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        # The newest visible version sorts first at (key, MAX_SEQ - max_seq).
        candidate = self._seek((key, MAX_SEQUENCE - max_seq))
        if candidate is not None and candidate.entry[0] == key:
            __, _seq, vtype, value = candidate.entry
            return (vtype, value)
        return None

    def entries(
        self, start: bytes = b""
    ) -> Iterator[tuple[bytes, int, int, bytes]]:
        node = self._seek((start, 0))  # sorts at or before every version of start
        while node is not None:
            yield node.entry
            node = node.forward[0]

    def approximate_size(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return self._count


class DictMemtable(Memtable):
    """Hash-map memtable: O(1) point ops, sort-on-iterate."""

    def __init__(self):
        # key -> list of (seq, vtype, value), append-ordered (seq ascending
        # because the engine assigns monotonically increasing sequences).
        self._table: dict[bytes, list[tuple[int, int, bytes]]] = {}
        self._count = 0
        self._bytes = 0

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        self._table.setdefault(key, []).append((seq, vtype, value))
        self._count += 1
        self._bytes += len(key) + len(value) + _ENTRY_OVERHEAD

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        versions = self._table.get(key)
        if not versions:
            return None
        for seq, vtype, value in reversed(versions):
            if seq <= max_seq:
                return (vtype, value)
        return None

    def entries(
        self, start: bytes = b""
    ) -> Iterator[tuple[bytes, int, int, bytes]]:
        for key in sorted(key for key in self._table if key >= start):
            for seq, vtype, value in sorted(self._table[key], reverse=True):
                yield (key, seq, vtype, value)

    def approximate_size(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return self._count


def make_memtable(impl: str) -> Memtable:
    """The engine's skiplist, or the hash + lazy-sort table replay-only
    holders (replica, read-only instance) use."""
    if impl == "skiplist":
        return SkipListMemtable()
    if impl == "dict":
        return DictMemtable()
    raise ValueError(f"unknown memtable implementation: {impl}")
