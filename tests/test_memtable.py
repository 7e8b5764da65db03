"""Tests for both memtable implementations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.lsm.iterator import key_range, merge_entries, newest_visible
from repro.lsm.memtable import DictMemtable, SkipListMemtable, make_memtable


@pytest.fixture(params=["skiplist", "dict"])
def memtable(request):
    return make_memtable(request.param)


def test_put_get(memtable):
    memtable.add(1, TYPE_PUT, b"key", b"value")
    assert memtable.get(b"key") == (TYPE_PUT, b"value")
    assert memtable.get(b"missing") is None


def test_newest_version_wins(memtable):
    memtable.add(1, TYPE_PUT, b"k", b"v1")
    memtable.add(2, TYPE_PUT, b"k", b"v2")
    assert memtable.get(b"k") == (TYPE_PUT, b"v2")


def test_snapshot_reads(memtable):
    memtable.add(5, TYPE_PUT, b"k", b"old")
    memtable.add(9, TYPE_PUT, b"k", b"new")
    assert memtable.get(b"k", max_seq=5) == (TYPE_PUT, b"old")
    assert memtable.get(b"k", max_seq=8) == (TYPE_PUT, b"old")
    assert memtable.get(b"k", max_seq=9) == (TYPE_PUT, b"new")
    assert memtable.get(b"k", max_seq=4) is None


def test_delete_visible(memtable):
    memtable.add(1, TYPE_PUT, b"k", b"v")
    memtable.add(2, TYPE_DELETE, b"k", b"")
    assert memtable.get(b"k") == (TYPE_DELETE, b"")


def test_entries_sorted(memtable):
    memtable.add(3, TYPE_PUT, b"b", b"3")
    memtable.add(1, TYPE_PUT, b"a", b"1")
    memtable.add(2, TYPE_PUT, b"b", b"2")
    entries = list(memtable.entries())
    assert [(e[0], e[1]) for e in entries] == [(b"a", 1), (b"b", 3), (b"b", 2)]


def test_sizes(memtable):
    assert len(memtable) == 0
    assert memtable.approximate_size() == 0
    memtable.add(1, TYPE_PUT, b"key", b"value")
    assert len(memtable) == 1
    assert memtable.approximate_size() >= len(b"key") + len(b"value")


def test_prefix_keys_not_confused(memtable):
    memtable.add(1, TYPE_PUT, b"abc", b"1")
    memtable.add(2, TYPE_PUT, b"ab", b"2")
    assert memtable.get(b"ab") == (TYPE_PUT, b"2")
    assert memtable.get(b"abc") == (TYPE_PUT, b"1")
    assert memtable.get(b"a") is None


def test_make_memtable_rejects_unknown():
    with pytest.raises(ValueError):
        make_memtable("btree")


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=8)),
        min_size=1,
        max_size=60,
    )
)
def test_implementations_agree(ops):
    skip = SkipListMemtable(seed=7)
    dct = DictMemtable()
    for seq, (key, value) in enumerate(ops, start=1):
        skip.add(seq, TYPE_PUT, key, value)
        dct.add(seq, TYPE_PUT, key, value)
    assert list(skip.entries()) == list(dct.entries())
    for __, (key, _v) in enumerate(ops):
        assert skip.get(key) == dct.get(key)


# -- entries(start): the seek a scan starts with ------------------------------


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=3),  # few distinct keys: versions pile up
            st.sampled_from([TYPE_PUT, TYPE_DELETE]),
            st.binary(max_size=4),
        ),
        max_size=60,
    ),
    start=st.binary(max_size=4),
)
def test_entries_from_start_is_a_suffix_of_entries(ops, start):
    """Seeking equals iterating from the head and dropping keys < start."""
    for impl in ("skiplist", "dict"):
        mem = make_memtable(impl)
        for seq, (key, vtype, value) in enumerate(ops, start=1):
            mem.add(seq, vtype, key, value if vtype == TYPE_PUT else b"")
        everything = list(mem.entries())
        for probe in (start, b"", b"\xff" * 5, *(key for key, __, ___ in ops)):
            assert list(mem.entries(probe)) == [
                entry for entry in everything if entry[0] >= probe
            ]


def _filled(impl: str, keys: int, versions: int):
    mem = make_memtable(impl)
    seq = 0
    for version in range(versions):
        for index in range(keys):
            seq += 1
            mem.add(seq, TYPE_PUT, b"key-%06d" % index, b"v%d" % version)
    return mem


@pytest.mark.parametrize("impl", ["skiplist", "dict"])
def test_a_limited_scan_pulls_limit_plus_versions_entries(impl):
    """What a scan(start, limit) takes from the memtable is bounded by the
    limit and the versions of the keys it returns, not by what lies before
    ``start``."""
    keys, versions, limit = 3000, 3, 20
    mem = _filled(impl, keys, versions)
    start = b"key-%06d" % (keys - 100)
    pulled = []

    def counted(entries):
        for entry in entries:
            pulled.append(entry)
            yield entry

    merged = newest_visible(merge_entries([counted(mem.entries(start))]))
    results = list(key_range(merged, start, None, limit))
    assert [key for key, __ in results] == [
        b"key-%06d" % index for index in range(keys - 100, keys - 100 + limit)
    ]
    assert all(value == b"v%d" % (versions - 1) for __, value in results)
    assert len(pulled) <= limit * versions
    assert pulled[0][0] == start


def test_skiplist_seek_descends_instead_of_walking():
    class CountedKey(bytes):
        compared = 0

        def __eq__(self, other):
            CountedKey.compared += 1
            return bytes.__eq__(self, other)

        __hash__ = bytes.__hash__

    mem = SkipListMemtable(seed=11)
    count = 4096
    for index in range(count):
        mem.add(index + 1, TYPE_PUT, CountedKey(b"key-%06d" % index), b"v")
    CountedKey.compared = 0
    first = next(mem.entries(b"key-%06d" % (count - 10)))
    assert first[0] == b"key-%06d" % (count - 10)
    assert CountedKey.compared < count // 16
