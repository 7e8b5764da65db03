"""The memtable: the in-memory self-sorting write buffer.

One sorted run -- a list of ``(user_key, MAX_SEQUENCE - seq, vtype, value)``
kept in order by ``bisect`` -- so a memtable holds every write it received
as (user_key asc, sequence desc) and reads can run at a snapshot.

Writers are serialized by the DB mutex; readers take no lock.  That is safe
because ``insort`` / ``bisect_left`` over tuples of bytes and ints and a list
slice are each one C call, atomic under the GIL, and the list only grows: an
index a reader computed can go stale (a writer inserted below it) but only
ever towards entries sorting *before* the reader's target, which the reader
sees and answers by seeking again (DESIGN.md, *Memtable*).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator

from repro.lsm.dbformat import MAX_SEQUENCE

_ENTRY_OVERHEAD = 24  # rough per-entry bookkeeping charge
_WALK_SLICE = 64  # entries copied out per step of entries()


class Memtable:
    """Sorted run keyed by (user_key, MAX_SEQUENCE - seq)."""

    def __init__(self):
        self._run: list[tuple[bytes, int, int, bytes]] = []
        self._bytes = 0

    def add(self, seq: int, vtype: int, key: bytes, value: bytes) -> None:
        insort(self._run, (key, MAX_SEQUENCE - seq, vtype, value))
        self._bytes += len(key) + len(value) + _ENTRY_OVERHEAD

    def get(self, key: bytes, max_seq: int = MAX_SEQUENCE):
        """Return (vtype, value) for the newest version of ``key`` at or
        below ``max_seq``, or None if the key is absent."""
        run = self._run
        # The newest visible version sorts first at (key, MAX_SEQ - max_seq).
        target = (key, MAX_SEQUENCE - max_seq)
        while True:
            index = bisect_left(run, target)
            if index >= len(run):
                return None
            entry = run[index]
            if entry >= target:  # else the index went stale: seek again
                return (entry[2], entry[3]) if entry[0] == key else None

    def entries(
        self, start: bytes = b""
    ) -> Iterator[tuple[bytes, int, int, bytes]]:
        """Yield every (key, seq, vtype, value) with ``key >= start``,
        sorted (key asc, seq desc), without visiting the keys before it."""
        run = self._run
        last: tuple = (start,)  # sorts just before every version of start
        while True:
            index = bisect_right(run, last)
            batch = run[index:index + _WALK_SLICE]
            if not batch:
                return
            if batch[0] <= last:
                continue  # the index went stale: seek again
            for key, inverted_seq, vtype, value in batch:
                yield (key, MAX_SEQUENCE - inverted_seq, vtype, value)
            last = batch[-1]

    def approximate_size(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._run)


def make_memtable(impl: str) -> Memtable:
    """The memtable, under either name callers knew an implementation by."""
    if impl not in ("skiplist", "dict"):
        raise ValueError(f"unknown memtable implementation: {impl}")
    return Memtable()
