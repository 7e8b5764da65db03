"""Merging iterators over internal entry streams.

Every source (memtable, SST reader) yields entries as
``(key, seq, vtype, value)`` sorted by (key asc, seq desc).  The merge is a
heap over the sources; duplicate sequences cannot occur, so ordering is
total.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.lsm.block import Entry
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE


def merge_entries(sources: list[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted entry streams into one (key asc, seq desc) stream."""
    return heapq.merge(
        *sources, key=lambda entry: (entry[0], MAX_SEQUENCE - entry[1])
    )


def newest_visible(
    entries: Iterable[Entry],
    snapshot_seq: int = MAX_SEQUENCE,
    keep_tombstones: bool = False,
) -> Iterator[Entry]:
    """Collapse a merged stream to the newest visible version per key.

    Entries with seq > snapshot_seq are invisible.  Tombstones are dropped
    (the key simply doesn't appear) unless ``keep_tombstones`` -- compaction
    to a non-bottommost level must preserve them so they keep shadowing
    older versions in lower levels.
    """
    previous_key: bytes | None = None
    for key, seq, vtype, value in entries:
        if seq > snapshot_seq:
            continue
        if key == previous_key:
            continue  # an older version of a key we already emitted/decided
        previous_key = key
        if vtype == TYPE_DELETE and not keep_tombstones:
            continue
        yield (key, seq, vtype, value)


def key_range(
    entries: Iterable[Entry],
    start: bytes,
    end: bytes | None,
    limit: int | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """The (key, value) pairs of a key-ordered stream within [start, end),
    stopping after ``limit`` pairs."""
    count = 0
    for key, __, ___, value in entries:
        if key < start:
            continue
        if end is not None and key >= end:
            return
        yield (key, value)
        count += 1
        if limit is not None and count >= limit:
            return
