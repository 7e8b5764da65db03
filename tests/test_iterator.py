"""Tests for merging iterators and visibility collapsing.

``merge_entries``, ``newest_visible`` and ``key_range`` are the oracle:
the plain heap merge, newest-version collapse and range cut that
``scan_runs`` (the engine's one scan loop) is checked against, here and
in the memtable and compaction tests.
"""

from heapq import merge
from typing import Iterable, Iterator

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidArgumentError
from repro.lsm.block import Entry
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE, TYPE_PUT
from repro.lsm.iterator import scan_runs


def merge_entries(sources: list[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted entry streams into one (key asc, seq desc) stream."""
    return merge(
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
    if limit == 0:
        return
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



def test_merge_two_sources():
    a = [(b"a", 1, TYPE_PUT, b"1"), (b"c", 3, TYPE_PUT, b"3")]
    b = [(b"b", 2, TYPE_PUT, b"2")]
    merged = list(merge_entries([a, b]))
    assert [e[0] for e in merged] == [b"a", b"b", b"c"]


def test_merge_orders_same_key_newest_first():
    a = [(b"k", 1, TYPE_PUT, b"old")]
    b = [(b"k", 5, TYPE_PUT, b"new")]
    merged = list(merge_entries([a, b]))
    assert merged[0][3] == b"new"
    assert merged[1][3] == b"old"


def test_newest_visible_dedupes():
    entries = [
        (b"k", 5, TYPE_PUT, b"new"),
        (b"k", 1, TYPE_PUT, b"old"),
        (b"l", 2, TYPE_PUT, b"x"),
    ]
    visible = list(newest_visible(entries))
    assert visible == [(b"k", 5, TYPE_PUT, b"new"), (b"l", 2, TYPE_PUT, b"x")]


def test_newest_visible_hides_tombstoned_keys():
    entries = [
        (b"k", 5, TYPE_DELETE, b""),
        (b"k", 1, TYPE_PUT, b"old"),
    ]
    assert list(newest_visible(entries)) == []


def test_newest_visible_keeps_tombstones_when_asked():
    entries = [
        (b"k", 5, TYPE_DELETE, b""),
        (b"k", 1, TYPE_PUT, b"old"),
    ]
    kept = list(newest_visible(entries, keep_tombstones=True))
    assert kept == [(b"k", 5, TYPE_DELETE, b"")]


def test_snapshot_filtering():
    entries = [
        (b"k", 9, TYPE_PUT, b"future"),
        (b"k", 4, TYPE_PUT, b"past"),
    ]
    visible = list(newest_visible(entries, snapshot_seq=5))
    assert visible == [(b"k", 4, TYPE_PUT, b"past")]


def test_snapshot_resurrects_overwritten_value():
    entries = [
        (b"k", 9, TYPE_DELETE, b""),
        (b"k", 4, TYPE_PUT, b"alive-at-5"),
    ]
    assert list(newest_visible(entries, snapshot_seq=5))[0][3] == b"alive-at-5"


@given(
    st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=4),
            st.binary(max_size=4),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_merged_stream_matches_dict_semantics(ops):
    # Assign unique ascending sequences; split ops across 3 sources.
    sources = [[], [], []]
    reference = {}
    for seq, (key, value) in enumerate(ops, start=1):
        sources[seq % 3].append((key, seq, TYPE_PUT, value))
        reference[key] = value
    from repro.lsm.dbformat import MAX_SEQUENCE

    sorted_sources = [
        sorted(src, key=lambda e: (e[0], MAX_SEQUENCE - e[1])) for src in sources
    ]
    visible = list(newest_visible(merge_entries(sorted_sources)))
    assert {k: v for k, __, ___, v in visible} == reference
    keys = [entry[0] for entry in visible]
    assert keys == sorted(keys)


def test_scan_runs_asks_for_a_file_only_when_the_cursor_reaches_it():
    """Two runs over fake files: which files are asked for, with which
    seek, and when -- ``entries_of`` is the only way to a file's entries."""
    files = {
        "old-1": [(b"a", 1, TYPE_PUT, b"a1"), (b"c", 2, TYPE_PUT, b"c2")],
        "old-2": [(b"e", 3, TYPE_PUT, b"e3"), (b"g", 4, TYPE_PUT, b"g4")],
        "old-3": [(b"i", 5, TYPE_PUT, b"i5")],
        "new-1": [(b"c", 9, TYPE_DELETE, b""), (b"e", 8, TYPE_PUT, b"e8")],
    }
    asked = []

    def entries_of(meta, seek):
        asked.append((meta, seek))
        return (entry for entry in files[meta] if entry[0] >= seek)

    memtable = [(b"b", 10, TYPE_PUT, b"b10")]
    runs = [["new-1"], ["old-1", "old-2", "old-3"]]
    cursor = scan_runs([memtable], runs, entries_of, b"b", None)
    assert asked == []  # building the cursor touches nothing
    assert next(cursor) == (b"b", b"b10")
    # Priming the merge asked for each run's FIRST file, at ``start``.
    assert asked == [("new-1", b"b"), ("old-1", b"b")]
    assert next(cursor) == (b"e", b"e8")  # c is deleted, e shadowed
    assert asked[2:] == [("old-2", b"")]  # crossed into the next file
    assert list(cursor) == [(b"g", b"g4"), (b"i", b"i5")]
    assert asked[3:] == [("old-3", b"")]

    # A limit stops the cursor before the run's later files are asked for,
    # a snapshot hides what is newer, an end bound closes the range.
    del asked[:]
    assert list(scan_runs([], runs, entries_of, b"", None, 2, 7)) == [
        (b"a", b"a1"), (b"c", b"c2"),
    ]
    assert [meta for meta, __ in asked] == ["new-1", "old-1"]
    assert list(scan_runs([], runs[1:], entries_of, b"", b"e")) == [
        (b"a", b"a1"), (b"c", b"c2"),
    ]


_KEY = st.binary(min_size=1, max_size=2)


@given(
    ops=st.lists(st.tuples(_KEY, st.booleans()), max_size=60),
    split=st.lists(st.integers(0, 3), max_size=60),
    start=st.binary(max_size=2),
    end=st.none() | _KEY,
    limit=st.none() | st.integers(0, 12),
    snapshot=st.none() | st.integers(0, 60),
)
def test_scan_runs_equals_the_three_stage_pipeline(
    ops, split, start, end, limit, snapshot
):
    """The one-loop drain against ``key_range(newest_visible(merge_entries))``:
    overwrites and tombstones spread over up to four sources, a snapshot,
    a range, a limit."""
    sources = [[], [], [], []]
    for seq, (key, is_put) in enumerate(ops, start=1):
        vtype = TYPE_PUT if is_put else TYPE_DELETE
        owner = split[seq - 1] if seq <= len(split) else 0
        sources[owner].append((key, seq, vtype, b"v%d" % seq))
    for source in sources:
        source.sort(key=lambda entry: (entry[0], MAX_SEQUENCE - entry[1]))
    at = MAX_SEQUENCE if snapshot is None else snapshot
    expected = list(key_range(
        newest_visible(merge_entries(sources), snapshot_seq=at),
        start, end, limit,
    ))
    got = scan_runs(sources, [], None, start, end, limit, at)
    assert list(got) == expected
    if limit == 0:
        assert expected == []


def test_a_negative_scan_limit_is_refused():
    with pytest.raises(InvalidArgumentError):
        list(scan_runs([[(b"a", 1, TYPE_PUT, b"1")]], [], None, b"", None, -1))
