"""Merging iterators over internal entry streams.

Every source (memtable, SST reader) yields entries as
``(key, seq, vtype, value)`` sorted by (key asc, seq desc).  The merge is a
heap over the sources; duplicate sequences cannot occur, so ordering is
total.

A merge pulls the first entry of every source before it yields anything,
so a source costs its first block whether or not a key of it is ever
returned: a scan's price is its number of sources.  :func:`scan_runs`
keeps that number at memtables + sorted runs (``Version.runs_for_range``),
not memtables + files.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import InvalidArgumentError
from repro.lsm.block import Entry
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE


def check_scan_limit(limit: int | None) -> None:
    """A scan limit, in every shape: None unbounded, 0 no pair, < 0 refused."""
    if limit is not None and limit < 0:
        raise InvalidArgumentError(f"scan limit must be >= 0, not {limit}")


def scan_runs(
    memtables: Iterable[Iterable[Entry]],
    runs: Iterable[Sequence],
    entries_of: Callable[[object, bytes], Iterable[Entry]],
    start: bytes,
    end: bytes | None,
    limit: int | None = None,
    snapshot_seq: int = MAX_SEQUENCE,
) -> Iterator[tuple[bytes, bytes]]:
    """The one merged scan: the newest visible (key, value) pairs of
    [start, end) over memtable streams plus a version's sorted runs.

    Each run (a list of file metadata with disjoint ascending ranges) is
    one merge source.  ``entries_of(meta, seek)`` streams a file's entries
    with key >= ``seek``; it is called when the cursor crosses into the
    file and not before, so obtaining a reader and loading a first block
    are paid only for files a returned key came from (plus, at most, the
    one the merge stopped in).  Only a run's first file can hold keys
    below ``start``; the rest are read from their first entry.

    One loop drains it, ``key_range(newest_visible(merge_entries()))`` its
    reference: heap items ``(key, -seq, source index, ...)`` need no key
    function, and a source advances only after its entry is dealt with.
    """
    check_scan_limit(limit)
    if limit == 0:
        return
    sources = list(memtables)
    sources.extend(_chained(run, entries_of, start) for run in runs)
    heap = []
    for index, source in enumerate(map(iter, sources)):
        for key, seq, vtype, value in source:
            heap.append((key, -seq, index, vtype, value, source))
            break
    heapify(heap)
    previous_key = None
    count = 0
    while heap:
        key, neg_seq, index, vtype, value, source = heap[0]
        if end is not None and key >= end:
            return
        if key != previous_key and -neg_seq <= snapshot_seq:
            previous_key = key  # its older versions follow: all skipped
            if vtype != TYPE_DELETE and key >= start:
                yield key, value
                count += 1
                if count == limit:
                    return
        for key, seq, vtype, value in source:
            heapreplace(heap, (key, -seq, index, vtype, value, source))
            break
        else:
            heappop(heap)


def _chained(run: Sequence, entries_of, start: bytes) -> Iterator[Entry]:
    """A run's files end to end.  ``map`` calls ``entries_of`` for the next
    file only when ``chain`` has exhausted the one before."""
    seeks = chain((start,), repeat(b""))
    return chain.from_iterable(map(entries_of, run, seeks))
