"""Model test of the read path: one dict oracle, rules not examples.

A Hypothesis state machine grows a random tree -- overlapping L0 files,
several levels holding older versions of the same keys, tombstones, an
immutable memtable whose flush is parked at a sync point, a close and
reopen through WAL replay -- and after any step may ask every scanner
(``DB.scan``, ``DB.iterator``, ``ReadOnlyInstance.scan``) for a random
``(start, end, limit, snapshot)`` and every point reader (``DB.get``,
``DB.multi_get``, ``ReadOnlyInstance.get``) for random keys: same answers
as the oracle.  One machine per scheme.  The storage adversary has a rule of
its own: a typed error or a quarantine, never a value the oracle lacks.

This is a slice of ROADMAP's model-test item: ``Oracle`` is the dict with
snapshots that item asks for, and the machine's rules are the ones it lists
that a read can observe.  Grow this file; do not start another.
"""

import itertools
import random
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.dist.readonly import ReadOnlyInstance
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB, SP_FLUSH_BEFORE_SST
from repro.lsm.filename import sst_path
from repro.lsm.options import Options, ReadOptions
from repro.lsm.write_batch import WriteBatch
from repro.shield import ShieldOptions, open_shield_db
from repro.util.syncpoint import SYNC

WAIT_S = 20.0
ALL_KEYS = [b"k%02d" % i for i in range(40)]
KEYS = st.sampled_from(ALL_KEYS)
VALUES = st.binary(max_size=24)
# Scan bounds also fall before, between and after the keys that exist.
#: One atomic batch: (key, value) puts and (key, None) deletes.
BATCHES = st.lists(st.tuples(KEYS, st.none() | VALUES), min_size=1, max_size=24)
BOUNDS = st.one_of(KEYS, st.sampled_from([b"", b"k", b"k05x", b"k11\x00", b"zz"]))


class Oracle:
    """A dict with history: what any read at any snapshot must return."""

    def __init__(self):
        self._log: list[tuple[bytes, bytes | None]] = []

    def put(self, key: bytes, value: bytes) -> None:
        self._log.append((key, value))

    def delete(self, key: bytes) -> None:
        self._log.append((key, None))

    def snapshot(self) -> int:
        """A token for "everything written so far"."""
        return len(self._log)

    def get(self, key: bytes, at=None) -> bytes | None:
        return dict(self._log[:at]).get(key)

    def scan(self, start=b"", end=None, limit=None, at=None):
        view = dict(self._log[:at])
        keys = sorted(
            key for key, value in view.items()
            if value is not None
            and key >= start and (end is None or key < end)
        )
        return [(key, view[key]) for key in keys[:limit]]


def park_flush(db) -> threading.Event:
    """Switch memtables and hold the flush job at its first sync point, so
    the DB keeps an immutable memtable until the returned event is set."""
    held, release = threading.Event(), threading.Event()

    def hold():
        held.set()
        assert release.wait(WAIT_S)

    SYNC.set_callback(SP_FLUSH_BEFORE_SST, hold)
    SYNC.enable()
    db.flush(wait=False)
    assert held.wait(WAIT_S)
    SYNC.clear_callback(SP_FLUSH_BEFORE_SST)  # later flushes run free
    return release


def _options(env):
    """Thresholds small enough that 40 keys make a deep tree: ~2 entries a
    block, ~2 blocks a file, L0 compacts at 4 files, L1 holds ~2 files."""
    return Options(
        env=env,
        write_buffer_size=1 << 20,  # the machine decides when to flush
        block_size=64,
        target_file_size=128,
        level0_file_num_compaction_trigger=4,
        max_bytes_for_level_base=256,
        fanout=2,
        max_background_jobs=1,
    )


class ScanModel(RuleBasedStateMachine):
    scheme: str | None = None

    def __init__(self):
        super().__init__()
        self.env, self.kds = MemEnv(), InMemoryKDS()
        self.snapshots: list[tuple[int, int]] = []  # (engine seq, oracle token)
        self.db = self._open()
        self.readonly = self._open_readonly()
        self.oracle = Oracle()
        self.parked: threading.Event | None = None

    def _open(self):
        if self.scheme is None:
            db = DB("/model", _options(self.env))
        else:
            # WAL buffer 0: a read-only instance sees a write once it is in
            # the WAL file, not while it sits in the primary's seal buffer.
            db = open_shield_db("/model", ShieldOptions(
                kds=self.kds, scheme=self.scheme, wal_buffer_size=0,
            ), _options(self.env))
        # Recovery flushes the replayed WAL to L0 and schedules whatever
        # compaction that makes due: quiescent before the next rule.
        db.wait_for_compaction()
        if db.stats.counter("db.compactions").value:
            self.snapshots.clear()  # see _settle
        return db

    def _open_readonly(self):
        provider = None
        if self.scheme is not None:
            provider = ShieldOptions(
                kds=self.kds, scheme=self.scheme, server_id="reader-1"
            ).build_provider()
        return ReadOnlyInstance("/model", _options(self.env), provider=provider)

    def _reopen_both(self):
        """Fresh table sets: no cached reader, no quarantine mark."""
        self.readonly.close()
        self.db.close()
        self.db = self._open()
        self.readonly = self._open_readonly()

    def teardown(self):
        if self.parked is not None:
            self.parked.set()
        SYNC.clear()
        self.readonly.close()
        self.db.close()

    # -- writes ---------------------------------------------------------------

    @initialize(generations=st.lists(
        st.tuples(st.integers(0, 2**32), st.integers(8, len(ALL_KEYS))),
        max_size=12,
    ))
    def grow_a_tree(self, generations):
        """Start from a tree, not from nothing: each generation rewrites a
        seeded sample of the key space (one key in five deleted) and is
        flushed, and compacted when due, so older versions of a key sit in
        deeper levels.  Seeds, not drawn lists: Hypothesis draws short
        lists, and short generations never fill a level."""
        for seed, size in generations:
            rng = random.Random(seed)
            self.write([
                (key, None if rng.random() < 0.2 else rng.randbytes(rng.randrange(25)))
                for key in rng.sample(ALL_KEYS, size)
            ])
            self._settle()

    @rule(batch=BATCHES)
    def write(self, batch):
        writes = WriteBatch()
        for key, value in batch:
            if value is None:
                writes.delete(key)
                self.oracle.delete(key)
            else:
                writes.put(key, value)
                self.oracle.put(key, value)
        self.db.write(writes)

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.db.put(key, value)
        self.oracle.put(key, value)

    @rule(key=KEYS)
    def delete(self, key):
        self.db.delete(key)
        self.oracle.delete(key)

    @rule()
    def snapshot(self):
        self.snapshots.append((self.db.snapshot(), self.oracle.snapshot()))

    @precondition(lambda self: self.parked is None)
    @rule(key=KEYS, before=st.none() | VALUES, versions=st.integers(4, 16))
    def bury_a_snapshot_under_versions(self, key, before, versions):
        """One version of ``key`` in the memtable, a snapshot, then enough
        newer versions to fill whole blocks, then a flush: the version the
        snapshot sees lands blocks behind the first one ``key`` is in."""
        if before is None:
            self.delete(key)
        else:
            self.put(key, before)
        self.snapshot()
        for version in range(versions):
            self.put(key, b"v%d" % version)
        self._settle()
        if self.snapshots:  # no compaction ran: the snapshot is still exact
            seq, at = self.snapshots[-1]
            opts = ReadOptions(snapshot=seq)
            expected = self.oracle.get(key, at)
            assert self.db.get(key, opts) == expected, "DB.get"
            assert self.db.multi_get([key], opts) == {key: expected}, "DB.multi_get"

    # -- tree shape -----------------------------------------------------------

    @precondition(lambda self: self.parked is None)
    @rule(compact=st.sampled_from(["picker", "picker", "picker", "full"]))
    def flush(self, compact):
        """A new L0 file; quiescent afterwards, so the tree a later rule
        sees depends on the rules run and not on thread timing."""
        self._settle(full=compact == "full")

    @precondition(lambda self: self.parked is None and len(self.db._mem) > 0)
    @rule()
    def park_flush(self):
        """From here to ``unpark_flush`` scans see an immutable memtable."""
        self.parked = park_flush(self.db)

    @precondition(lambda self: self.parked is not None)
    @rule()
    def unpark_flush(self):
        self.parked.set()
        self.parked = None
        self._settle()

    @precondition(lambda self: self.parked is None)
    @rule()
    def reopen(self):
        """Whatever the memtable held comes back through WAL replay, under
        the sequence numbers it was written with (snapshots stay exact, until
        the L0 file recovery adds makes a compaction due)."""
        self.db.close()
        self.db = self._open()

    # -- the adversary --------------------------------------------------------

    @precondition(lambda self: self.scheme is not None and self.parked is None
                  and self.db._versions.current.num_files() >= 2)
    @rule(pick=st.integers(0, 1_000), other=st.integers(0, 1_000))
    def substitute_a_live_sst_with_a_sibling(self, pick, other):
        """Authentic bytes under the wrong name pass every tag; the name's
        MANIFEST entry is what they fail.  Every reader that reaches the file
        raises and quarantines it; no reader returns what the oracle lacks."""
        self._reopen_both()  # every live file cold, nothing in the background
        files = [meta for __, meta in self.db.live_files()]
        if len(files) < 2:
            return  # the reopen's compaction left one file
        step = 1 + other % (len(files) - 1)  # any file but the victim
        victim, sibling = files[pick % len(files)], files[(pick + step) % len(files)]
        path = sst_path("/model", victim.number)
        honest = self.env.read_file(path)
        self.env.write_file(
            path, self.env.read_file(sst_path("/model", sibling.number))
        )
        for store in (self.db, self.readonly):
            with pytest.raises(AuthenticationError):
                store.scan()  # reaches every file
            assert victim.number in store.quarantined_files()
            for key in ALL_KEYS:
                try:
                    assert store.get(key) == self.oracle.get(key)
                except AuthenticationError:
                    pass
        with pytest.raises(AuthenticationError):
            list(self.db.iterator())
        self.env.write_file(path, honest)
        self._reopen_both()  # no quarantine mark outlives the rule

    def _settle(self, full=False):
        compactions = self.db.stats.counter("db.compactions")
        before = compactions.value
        self.db.flush()
        self.db.wait_for_compaction()
        if full:
            self.db.force_compaction()
        if compactions.value != before:
            # The engine's documented simplification (``DB.snapshot``): a
            # compaction keeps only the newest version of each key, so a
            # snapshot is exact only until one runs.
            self.snapshots.clear()

    # -- the property ---------------------------------------------------------

    @rule(
        start=BOUNDS,
        end=st.none() | BOUNDS,
        limit=st.none() | st.integers(min_value=1, max_value=30),
        snapshot=st.none() | st.integers(min_value=0, max_value=1_000),
    )
    def scans_agree_with_the_oracle(self, start, end, limit, snapshot):
        seq = at = None
        if snapshot is not None and self.snapshots:
            seq, at = self.snapshots[snapshot % len(self.snapshots)]
        opts = ReadOptions(snapshot=seq)
        expected = self.oracle.scan(start, end, limit, at)
        assert self.db.scan(start, end, limit, opts) == expected, "DB.scan"
        cursor = self.db.iterator(start, end, opts)
        assert list(itertools.islice(cursor, limit)) == expected, "DB.iterator"
        if at is None:  # a read-only instance has no snapshots: it IS one
            self.readonly.refresh()
            got = self.readonly.scan(start, end, limit)
            assert got == expected, "ReadOnlyInstance.scan"

    @rule(
        keys=st.lists(KEYS, min_size=1, max_size=8),
        snapshot=st.none() | st.integers(min_value=0, max_value=1_000),
    )
    def gets_agree_with_the_oracle(self, keys, snapshot):
        seq = at = None
        if snapshot is not None and self.snapshots:
            seq, at = self.snapshots[snapshot % len(self.snapshots)]
        opts = ReadOptions(snapshot=seq)
        expected = {key: self.oracle.get(key, at) for key in keys}
        assert {key: self.db.get(key, opts) for key in keys} == expected, "DB.get"
        assert self.db.multi_get(keys, opts) == expected, "DB.multi_get"
        if at is None:
            self.readonly.refresh()
            got = {key: self.readonly.get(key) for key in keys}
            assert got == expected, "ReadOnlyInstance.get"

    @invariant()
    def levels_are_sorted_runs(self):
        """What makes chaining a level legal."""
        levels = self.db._versions.current.levels
        for files in levels[1:]:
            for left, right in zip(files, files[1:]):
                assert left.largest < right.smallest


def _machine(scheme):
    case = type(
        f"ScanModel[{scheme or 'none'}]", (ScanModel,), {"scheme": scheme}
    ).TestCase
    case.settings = settings(
        max_examples=40, stateful_step_count=40, deadline=None
    )
    return case


TestScanModelPlaintext = _machine(None)
TestScanModelShakeCtr = _machine("shake-ctr")
TestScanModelShakeEtm = _machine("shake-etm")


@pytest.mark.parametrize("scheme", [None, "shake-ctr", "shake-etm"])
def test_a_snapshot_read_looks_past_a_block_of_newer_versions(scheme):
    """The versions of one key straddle a block boundary and every one in
    the first block is newer than the snapshot: the file must read on into
    the next block, not report a miss that falls through to an older file."""
    model = type("Straddle", (ScanModel,), {"scheme": scheme})()
    try:
        db = model.db
        db.put(b"k", b"old")
        db.flush()
        db.delete(b"k")
        snap = db.snapshot()
        for i in range(12):
            db.put(b"k", b"new-%02d" % i)
        assert db.get(b"k", ReadOptions(snapshot=snap)) is None  # memtable
        db.flush()
        assert db.stats.counter("db.compactions").value == 0
        opts = ReadOptions(snapshot=snap)
        assert db.get(b"k", opts) is None
        assert db.multi_get([b"k"], opts) == {b"k": None}
        assert db.scan(opts=opts) == []
        assert db.get(b"k") == b"new-11"
    finally:
        model.teardown()
