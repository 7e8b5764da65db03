"""The flush writes what readers can see, and leaves it decoded.

A flush keeps one version per key, the newest, tombstones included: a view
that predates it pinned the memtable, so a snapshot still reads its older
version there.  When the block cache is in use, the flush hands the file's
reader the data blocks it built, so the first get of a just-flushed key
reads, checks and decrypts nothing; an unused cache stays empty, and no
cached block outlives its file."""

import threading

import pytest

from repro.crypto.cipher import CRYPTO_STATS
from repro.env.mem import MemEnv
from repro.env.metered import MeteredEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB, SP_FLUSH_AFTER_MANIFEST, SP_FLUSH_AFTER_SST
from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.lsm.filename import sst_path
from repro.lsm.options import Options, ReadOptions
from repro.lsm.sst import SSTReader
from repro.shield import ShieldOptions, open_shield_db
from repro.util.syncpoint import SYNC

PATH = "/flush"
SCHEMES = [None, "shake-ctr", "shake-etm"]
WAIT_S = 20.0


def _open(scheme="shake-etm", env=None, **overrides):
    """A SHIELD DB (plaintext for ``None``), compaction parked unless a
    test lowers the trigger: one flush is one L0 file."""
    options = Options(
        env=env or MemEnv(), block_size=256,
        level0_file_num_compaction_trigger=100,
    )
    for name, setting in overrides.items():
        setattr(options, name, setting)
    if scheme is None:
        return DB(PATH, options)
    return open_shield_db(PATH, ShieldOptions(kds=InMemoryKDS(), scheme=scheme), options)


def _count(db, name):
    return db.stats.counter(name).value


def _cached_files(db):
    """The SST paths the block cache holds a block of."""
    with db._block_cache._lock:
        return {path for path, __ in db._block_cache._entries}


def _live_paths(db):
    return {sst_path(PATH, meta.number) for __, meta in db.live_files()}


def _stored_paths(db):
    """The SST paths on storage."""
    return {
        f"{PATH}/{name}" for name in db.env.list_dir(PATH) if name.endswith(".sst")
    }


def _use_the_cache(db, key=b"warm-up"):
    """One flushed key read back: the cache holds a block, so it is in use."""
    db.put(key, b"x")
    db.flush()
    db.wait_for_compaction()
    assert db.get(key) == b"x"
    assert db.get_property("repro.block-cache-usage") > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_flushed_file_holds_one_entry_per_key_tombstones_among_them(scheme):
    with _open(scheme) as db:
        for i in range(6):
            db.put(b"a", b"a%d" % i)
        db.put(b"b", b"old")
        db.delete(b"b")
        db.put(b"c", b"c")
        db.flush()
        ((level, meta),) = db.live_files()
        entries = [
            (key, vtype, value)
            for key, __, vtype, value in db._tables.reader(meta).entries()
        ]
        assert (level, meta.num_entries) == (0, 3)
        assert entries == [
            (b"a", TYPE_PUT, b"a5"), (b"b", TYPE_DELETE, b""), (b"c", TYPE_PUT, b"c"),
        ]
        assert _count(db, "db.flush_shadowed") == 6
        assert (db.get(b"a"), db.get(b"b"), db.get(b"c")) == (b"a5", None, b"c")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_live_snapshot_reads_its_version_after_the_flush_and_a_full_compaction(scheme):
    with _open(scheme) as db:
        db.put(b"k", b"first")
        db.delete(b"gone")
        with db.snapshot() as snap:
            for i in range(20):
                db.put(b"k", b"later-%02d" % i)
            db.put(b"gone", b"back")
            opts = ReadOptions(snapshot=snap)
            for step in (db.flush, db.force_compaction):
                step()
                assert db.get(b"k", opts) == b"first", step.__name__
                assert db.get(b"gone", opts) is None, step.__name__
                assert db.scan(opts=opts) == [(b"k", b"first")], step.__name__
            assert _count(db, "db.flush_shadowed") == 21
        assert db.get(b"k") == b"later-19"
        assert db.get(b"gone") == b"back"


def test_a_reopen_keeps_every_version_the_log_held():
    """Recovery's flush keeps every version: a sequence read across a
    reopen (nothing pins across handles) stays exact until a merge."""
    env = MemEnv()
    with _open(None, env=env) as db:
        db.put(b"k", b"old")
        seq = db.committed_sequence()
        db.put(b"k", b"new")
    with _open(None, env=env) as db:
        assert db.stats_snapshot()["db.flush_shadowed"] == 0
        assert db.get(b"k", ReadOptions(snapshot=seq)) == b"old"
        assert db.get(b"k") == b"new"


def test_a_get_of_a_just_flushed_key_reads_checks_and_decrypts_nothing():
    env = MeteredEnv(MemEnv())
    with _open("shake-etm", env=env) as db:
        _use_the_cache(db)
        for i in range(200):
            db.put(b"key-%04d" % i, b"v%d" % i)
        db.flush()
        db.wait_for_compaction()  # the warm runs after the flush's install
        assert _count(db, "db.flush_cached_blocks") > 1
        counters = [env.stats.counter("io.read.ops.sst")] + [
            CRYPTO_STATS.counter(name) for name in ("crypto.ops", "crypto.auth_ok")
        ]
        before = [counter.value for counter in counters]
        for i in range(0, 200, 7):
            assert db.get(b"key-%04d" % i) == b"v%d" % i
        assert [counter.value for counter in counters] == before


def test_the_warmed_blocks_are_the_ones_a_miss_would_cache():
    with _open("shake-etm") as db:
        _use_the_cache(db)
        for i in range(100):
            db.put(b"key-%04d" % i, b"v%d" % i)
        db.flush()
        db.wait_for_compaction()
        meta = max((meta for __, meta in db.live_files()), key=lambda m: m.number)
        path = sst_path(PATH, meta.number)
        with db._block_cache._lock:
            warmed = {
                key: (value, charge)
                for key, (value, charge) in db._block_cache._entries.items()
                if key[0] == path
            }
        cold = SSTReader(db.env, path, db.provider, db.options)
        assert len(warmed) == _count(db, "db.flush_cached_blocks") == len(cold._index)
        for block_index, (__, offset, size, ___) in enumerate(cold._index):
            value, charge = warmed[(path, offset)]
            assert charge == size
            assert list(value.entries()) == list(cold._read_block(block_index).entries())
        cold.close()


def test_an_unused_cache_stays_empty_through_a_write_only_load():
    with _open("shake-etm", write_buffer_size=4096,
               level0_file_num_compaction_trigger=4) as db:
        for i in range(3000):
            db.put(b"key-%05d" % (i * 7919 % 3000), b"v" * 20)
        db.flush()
        db.wait_for_compaction()
        assert _count(db, "db.flushes") >= 5
        assert _count(db, "db.compactions") >= 1
        assert db.stats_snapshot()["db.flush_cached_blocks"] == 0
        assert db.get_property("repro.block-cache-usage") == 0


def test_no_cached_block_outlives_its_file_when_a_merge_takes_it():
    with _open("shake-etm", level0_file_num_compaction_trigger=3) as db:
        _use_the_cache(db, key=b"key-0000")
        for batch in range(6):  # every file overlaps every other: merges
            for i in range(0, 60, 3):
                db.put(b"key-%04d" % i, b"v%d-%d" % (batch, i))
            db.flush()
            db.wait_for_compaction()
        assert _count(db, "db.compactions") >= 2
        assert _count(db, "db.flush_cached_blocks") > 0
        assert _cached_files(db) <= _live_paths(db)
        assert db.get(b"key-0003") == b"v5-3"


@pytest.mark.parametrize("scheme", ["shake-ctr", "shake-etm"])
def test_a_merge_that_takes_the_file_before_its_warm_leaves_none_of_it(scheme):
    """The flush is held after its install until a merge has consumed the
    file it installed: the warm still finds the file (the flush pinned it),
    and the purge after the flush takes the file and its blocks out."""
    with _open(scheme, level0_file_num_compaction_trigger=2,
               max_background_jobs=2) as db:
        _use_the_cache(db, key=b"k-1")  # one L0 file: the next flush merges
        merged = threading.Event()

        def hold():
            assert merged.wait(WAIT_S)

        def wait_for_the_merge():
            with db._cond:
                assert db._cond.wait_for(
                    lambda: _count(db, "db.compactions") == 1, WAIT_S
                )
            merged.set()

        SYNC.set_callback(SP_FLUSH_AFTER_MANIFEST, hold)
        SYNC.enable()
        try:
            waiter = threading.Thread(target=wait_for_the_merge)
            waiter.start()
            db.put(b"k-0", b"v")
            db.put(b"k-2", b"v")
            db.flush(wait=False)
            waiter.join(WAIT_S)
            db.wait_for_compaction()
        finally:
            SYNC.clear()
        assert merged.is_set()
        assert _count(db, "db.flush_cached_blocks") > 0
        assert _stored_paths(db) == _live_paths(db)
        assert _cached_files(db) <= _live_paths(db)
        assert [db.get(b"k-%d" % i) for i in range(3)] == [b"v", b"x", b"v"]


def test_gets_read_right_while_flushes_warm_the_cache():
    with _open("shake-etm", write_buffer_size=4096,
               level0_file_num_compaction_trigger=3) as db:
        _use_the_cache(db)
        written = {}
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                for key, value in list(written.items()):
                    # The write acked before the get, or a later one of key.
                    got = db.get(key)
                    if got is None or not (
                        int(got[1:]) >= int(value[1:])
                        and int(got[1:]) % 60 == int(key[4:])
                    ):
                        errors.append((key, got, value))

        threads = [threading.Thread(target=reader) for __ in range(2)]
        for thread in threads:
            thread.start()
        try:
            for i in range(1500):
                key = b"key-%03d" % (i % 60)
                db.put(key, b"v%d" % i)
                written[key] = b"v%d" % i
        finally:
            stop.set()
            for thread in threads:
                thread.join(WAIT_S)
        db.flush()
        db.wait_for_compaction()
        assert errors == []
        assert _count(db, "db.flush_cached_blocks") > 0
        assert _count(db, "db.flush_shadowed") > 0
        assert _cached_files(db) <= _live_paths(db)
        assert {key: db.get(key) for key in written} == written


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_snapshot_released_mid_flush_leaves_no_file_behind(scheme):
    """Two snapshots between overwrites; the flush is held after writing
    its file while one of them is released.  The other still reads its
    version after the flush and a full compaction, and once it goes too,
    only live files are left on storage."""
    with _open(scheme) as db:
        _use_the_cache(db)
        db.put(b"k", b"one")
        first = db.snapshot()
        db.put(b"k", b"two")
        second = db.snapshot()
        db.put(b"k", b"three")
        held, release = threading.Event(), threading.Event()

        def hold():
            held.set()
            assert release.wait(WAIT_S)

        SYNC.set_callback(SP_FLUSH_AFTER_SST, hold)
        SYNC.enable()
        try:
            db.flush(wait=False)
            assert held.wait(WAIT_S)
            first.release()
            release.set()
            db.flush()
            db.wait_for_compaction()
        finally:
            SYNC.clear()
        opts = ReadOptions(snapshot=second)
        assert db.get(b"k", opts) == b"two"
        db.force_compaction()
        assert db.get(b"k", opts) == b"two"
        second.release()
        db.wait_for_compaction()
        assert db.get(b"k") == b"three"
        assert _stored_paths(db) == _live_paths(db)
        assert _cached_files(db) <= _live_paths(db)
