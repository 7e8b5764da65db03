"""Tests for the memtable: one sorted run, lock-free readers."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE, TYPE_PUT
from repro.lsm.memtable import Memtable, make_memtable
from tests.test_iterator import key_range, merge_entries, newest_visible

#: The names ``make_memtable`` still answers to (``benchmarks/perf/layers.py``
#: asks for "skiplist"): both are the one memtable.
NAMES = ["skiplist", "dict"]


@pytest.fixture(params=NAMES)
def memtable(request):
    mem = make_memtable(request.param)
    assert type(mem) is Memtable
    return mem


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


# -- model check: a dict of versions is the oracle ----------------------------


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=3),  # few distinct keys: versions pile up
            st.sampled_from([TYPE_PUT, TYPE_DELETE]),
            st.binary(max_size=6),
        ),
        max_size=80,
    ),
    order=st.randoms(use_true_random=False),
    probe=st.binary(max_size=4),
)
def test_matches_versions_oracle(ops, order, probe):
    """``add`` / ``get(key, max_seq)`` / ``entries(start)`` against
    key -> {seq: (vtype, value)}, whatever order the sequences arrive in."""
    versioned = [
        (seq, key, vtype, value if vtype == TYPE_PUT else b"")
        for seq, (key, vtype, value) in enumerate(ops, start=1)
    ]
    order.shuffle(versioned)
    mem = Memtable()
    oracle: dict[bytes, dict[int, tuple[int, bytes]]] = {}
    for seq, key, vtype, value in versioned:
        mem.add(seq, vtype, key, value)
        oracle.setdefault(key, {})[seq] = (vtype, value)

    assert len(mem) == len(ops)
    for key in (*oracle, probe):
        versions = oracle.get(key, {})
        for max_seq in (0, *versions, len(ops) + 1, MAX_SEQUENCE):
            visible = [seq for seq in versions if seq <= max_seq]
            expected = versions[max(visible)] if visible else None
            assert mem.get(key, max_seq) == expected
    for start in (b"", probe, *oracle):
        assert list(mem.entries(start)) == [
            (key, seq, *oracle[key][seq])
            for key in sorted(oracle) if key >= start
            for seq in sorted(oracle[key], reverse=True)
        ]


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
    mem = Memtable()
    for seq, (key, vtype, value) in enumerate(ops, start=1):
        mem.add(seq, vtype, key, value if vtype == TYPE_PUT else b"")
    everything = list(mem.entries())
    for probe in (start, b"", b"\xff" * 5, *(key for key, __, ___ in ops)):
        assert list(mem.entries(probe)) == [
            entry for entry in everything if entry[0] >= probe
        ]


def _filled(impl: str, keys: int, versions: int, key_type=bytes):
    mem = make_memtable(impl)
    seq = 0
    for version in range(versions):
        for index in range(keys):
            seq += 1
            mem.add(seq, TYPE_PUT, key_type(b"key-%06d" % index), b"v%d" % version)
    return mem


@pytest.mark.parametrize("impl", NAMES)
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


def test_a_limited_scan_seeks_and_materialises_its_limit():
    """``entries(start)`` + ``limit`` 20 on 10,000 keys, as the replica and
    ``ReadOnlyInstance`` scan: a bisect's worth of key comparisons and about
    ``limit`` tuples built -- not a walk to ``start``, not a sort of every
    key after it."""

    class CountedKey(bytes):
        compared = 0

        def _counting(compare):
            def counted(self, other):
                CountedKey.compared += 1
                return compare(self, other)
            return counted

        __eq__ = _counting(bytes.__eq__)
        __lt__ = _counting(bytes.__lt__)
        __gt__ = _counting(bytes.__gt__)
        __hash__ = bytes.__hash__

    count, limit = 10_000, 20
    mem = _filled("skiplist", count, 1, key_type=CountedKey)
    start = b"key-%06d" % (count // 2)
    built = []

    def counted(entries):
        for entry in entries:
            built.append(entry)
            yield entry

    CountedKey.compared = 0
    newest = newest_visible(counted(mem.entries(start)))
    results = list(key_range(newest, start, None, limit))
    assert [key for key, __ in results] == [
        b"key-%06d" % index for index in range(count // 2, count // 2 + limit)
    ]
    assert len(built) <= limit + 1
    # ~2 per bisect step (14 steps) plus ~3 per entry the scan looked at.
    assert CountedKey.compared < 40 + 4 * limit


# -- lock-free readers ---------------------------------------------------------


def test_readers_need_no_lock_while_a_writer_inserts(monkeypatch):
    """One writer, three readers, no lock and no sleeps: every acked version
    is found at its own sequence, and every ``entries()`` pass is strictly
    sorted (so duplicate-free) and skips nothing acked before it began."""
    # entries() re-seeks once per slice; short slices put its race window
    # (an insert between the bisect and the slice) in reach of one run.
    monkeypatch.setattr("repro.lsm.memtable._WALK_SLICE", 3)
    total, distinct = 20_000, 5_000  # four versions per key
    keys = [b"key-%06d" % (index * 7919 % distinct) for index in range(total)]
    mem = Memtable()
    acked = [0]  # entries [0, acked) are inserted, at sequence index + 1
    failures: list[str] = []

    def writer():
        for index, key in enumerate(keys):
            mem.add(index + 1, TYPE_PUT, key, b"%d" % index)
            acked[0] = index + 1

    def reader(stride: int):
        passes = 0
        while not failures:
            done = acked[0]
            for index in range(passes % stride, done, max(stride, done // 64)):
                if mem.get(keys[index], index + 1) != (TYPE_PUT, b"%d" % index):
                    failures.append(f"acked version {index} not found")
                newest = mem.get(keys[index])
                if newest is None or int(newest[1]) % distinct != index % distinct:
                    failures.append(f"wrong newest version for {index}")
            previous, seen = (b"", 0), 0
            for key, seq, __, value in mem.entries():
                if (key, -seq) <= previous:
                    failures.append(f"out of order or duplicate at {key!r}@{seq}")
                previous = (key, -seq)
                seen += seq <= done
            if seen != done:
                failures.append(f"a pass saw {seen} of {done} acked entries")
            passes += 1
            if done == total:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # a switch every few bytecodes: races are 1-in-N
    try:
        threads = [threading.Thread(target=reader, args=(stride,))
                   for stride in (7, 11, 13)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]
    assert len(mem) == total
