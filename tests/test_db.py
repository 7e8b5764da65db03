"""Integration tests for the DB facade: CRUD, flush, compaction, recovery."""

import threading

import pytest

from repro.env.mem import MemEnv
from repro.errors import InvalidArgumentError, IOError_
from repro.lsm.db import DB
from repro.lsm.options import Options, ReadOptions, WriteOptions
from repro.lsm.write_batch import WriteBatch
from repro.util.clock import VirtualClock


def _small_options(**overrides) -> Options:
    defaults = dict(
        env=MemEnv(),
        write_buffer_size=4 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_size=8 * 1024,
        block_size=1024,
        max_background_jobs=2,
    )
    defaults.update(overrides)
    return Options(**defaults)


def test_put_get_delete():
    with DB("/db", _small_options()) as db:
        db.put(b"key", b"value")
        assert db.get(b"key") == b"value"
        db.delete(b"key")
        assert db.get(b"key") is None
        assert db.get(b"never-written") is None


def test_overwrite():
    with DB("/db", _small_options()) as db:
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"


def test_write_batch_atomicity():
    with DB("/db", _small_options()) as db:
        batch = WriteBatch()
        batch.put(b"a", b"1").put(b"b", b"2").delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"


def test_empty_batch_noop():
    with DB("/db", _small_options()) as db:
        db.write(WriteBatch())
        assert db.snapshot() == 0


@pytest.mark.parametrize(
    "value", [5, [1, 2, 3], "text"], ids=["int", "list-of-ints", "str"]
)
def test_a_value_that_is_not_bytes_is_refused_before_anything_is_queued(value):
    """``bytes(5)`` is five NUL bytes and ``bytes([1, 2, 3])`` is
    ``b"\x01\x02\x03"``: a put must not store either.  It raises
    ``TypeError`` and leaves the store, its sequence and the WAL as they
    were."""
    env = MemEnv()
    with DB("/db", _small_options(env=env)) as db:  # unbuffered WAL
        db.put(b"k", b"before")
        wal = [f"/db/{n}" for n in env.list_dir("/db") if n.endswith(".log")]
        logged = [env.read_file(path) for path in wal]
        sequence = db.committed_sequence()
        with pytest.raises(TypeError):
            db.put(b"k", value)
        with pytest.raises(TypeError):
            db.write(WriteBatch().put(b"other", b"v").put(b"k", value))
        assert db.get(b"k") == b"before" and db.get(b"other") is None
        assert db.committed_sequence() == sequence
        assert db.stats.counter("db.writes").value == 1
        assert [env.read_file(path) for path in wal] == logged


def test_a_value_may_be_any_bytes_like_or_empty():
    with DB("/db", _small_options()) as db:
        db.put(b"empty", b"")
        db.put(b"array", bytearray(b"ab"))
        db.put(b"view", memoryview(b"xyz")[1:])
        assert db.get(b"empty") == b""
        assert db.get(b"array") == b"ab"
        assert db.get(b"view") == b"yz"


def test_values_survive_flush():
    with DB("/db", _small_options()) as db:
        for i in range(200):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        assert db.num_files_at_level(0) >= 1
        for i in range(0, 200, 17):
            assert db.get(b"key-%04d" % i) == b"value-%04d" % i


def test_deletes_survive_flush_and_compaction():
    with DB("/db", _small_options()) as db:
        for i in range(100):
            db.put(b"key-%04d" % i, b"x" * 50)
        db.flush()
        for i in range(0, 100, 2):
            db.delete(b"key-%04d" % i)
        db.compact_range()
        for i in range(100):
            expected = None if i % 2 == 0 else b"x" * 50
            assert db.get(b"key-%04d" % i) == expected


def test_compaction_reduces_l0():
    options = _small_options(level0_file_num_compaction_trigger=2)
    with DB("/db", options) as db:
        for i in range(3000):
            db.put(b"key-%05d" % (i % 600), b"v" * 60)
        db.compact_range()
        assert db.num_files_at_level(0) < 2
        total_files = sum(
            db.num_files_at_level(level) for level in range(options.num_levels)
        )
        assert total_files >= 1
        for i in range(600):
            assert db.get(b"key-%05d" % i) == b"v" * 60


def test_recovery_from_wal_after_close():
    env = MemEnv()
    db = DB("/db", _small_options(env=env))
    db.put(b"persisted", b"yes")
    db.close()
    with DB("/db", _small_options(env=env)) as reopened:
        assert reopened.get(b"persisted") == b"yes"


def test_recovery_after_process_crash():
    env = MemEnv()
    db = DB("/db", _small_options(env=env))
    for i in range(50):
        db.put(b"k-%03d" % i, b"v-%03d" % i)
    db.simulate_crash()
    with DB("/db", _small_options(env=env)) as recovered:
        for i in range(50):
            assert recovered.get(b"k-%03d" % i) == b"v-%03d" % i


def test_system_crash_loses_unsynced_keeps_synced():
    env = MemEnv()
    db = DB("/db", _small_options(env=env))
    db.put(b"synced", b"1", WriteOptions(sync=True))
    db.put(b"unsynced", b"2")  # buffered I/O only
    db.simulate_crash()
    env.crash_system()
    with DB("/db", _small_options(env=env)) as recovered:
        assert recovered.get(b"synced") == b"1"
        assert recovered.get(b"unsynced") is None


def test_recovery_preserves_flushed_data_and_sequence():
    env = MemEnv()
    db = DB("/db", _small_options(env=env))
    for i in range(300):
        db.put(b"key-%04d" % i, b"val")
    db.flush()
    last = db.snapshot()
    db.close()
    with DB("/db", _small_options(env=env)) as reopened:
        assert reopened.snapshot() >= last
        assert reopened.get(b"key-0299") == b"val"


def test_scan_range():
    with DB("/db", _small_options()) as db:
        for i in range(100):
            db.put(b"key-%04d" % i, b"%d" % i)
        db.flush()
        for i in range(100, 150):
            db.put(b"key-%04d" % i, b"%d" % i)  # still in memtable
        results = db.scan(b"key-0095", b"key-0105")
        assert [k for k, __ in results] == [b"key-%04d" % i for i in range(95, 105)]
        assert results[0][1] == b"95"


def test_scan_limit_and_tombstones():
    with DB("/db", _small_options()) as db:
        for i in range(20):
            db.put(b"k-%02d" % i, b"v")
        db.delete(b"k-03")
        results = db.scan(limit=5)
        assert len(results) == 5
        assert b"k-03" not in [k for k, __ in results]


def test_snapshot_read_in_memtable():
    with DB("/db", _small_options()) as db:
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        assert db.get(b"k", ReadOptions(snapshot=snap)) == b"v1"


def test_disable_wal_write():
    env = MemEnv()
    db = DB("/db", _small_options(env=env))
    db.put(b"volatile", b"1", WriteOptions(disable_wal=True))
    assert db.get(b"volatile") == b"1"
    db.simulate_crash()
    with DB("/db", _small_options(env=env)) as recovered:
        assert recovered.get(b"volatile") is None


def test_closed_db_rejects_operations():
    db = DB("/db", _small_options())
    db.close()
    with pytest.raises(IOError_):
        db.put(b"k", b"v")
    with pytest.raises(IOError_):
        db.get(b"k")
    db.close()  # second close is a no-op


def test_open_missing_without_create_raises():
    options = _small_options(create_if_missing=False)
    with pytest.raises(InvalidArgumentError):
        DB("/nonexistent", options)


@pytest.mark.parametrize("field, value", [
    ("level0_file_num_compaction_trigger", 0),
    ("max_bytes_for_level_base", 0),
    ("fifo_max_table_files_size", 0),
    ("universal_max_sorted_runs", 0),
    ("num_levels", 1),
    ("max_background_jobs", 0),
])
def test_open_rejects_a_value_the_engine_divides_by_or_indexes_with(
    field, value
):
    # Each of these used to pass validation and fail later: a
    # ZeroDivisionError or IndexError at open, on a write or in the
    # background, or a ValueError from the worker pool.
    options = _small_options(**{field: value})
    with pytest.raises(InvalidArgumentError, match=field):
        DB("/db", options)


def test_open_refuses_adaptive_compaction():
    """The adaptive controller is gone: a caller asking for adaptation gets
    an error at open, not a static policy in silence."""
    options = _small_options(adaptive_compaction=True)
    with pytest.raises(InvalidArgumentError, match="controller was removed"):
        DB("/db", options)
    with pytest.raises(InvalidArgumentError, match="adaptive_compaction"):
        Options(adaptive_compaction=True).validate()
    Options(adaptive_compaction=False).validate()


def test_universal_compaction_end_to_end():
    options = _small_options(
        compaction_style="universal", universal_max_sorted_runs=3
    )
    with DB("/db", options) as db:
        for i in range(2000):
            db.put(b"key-%05d" % (i % 400), b"v" * 40)
        db.compact_range()
        assert db.num_files_at_level(0) <= 3 + 1
        for i in range(400):
            assert db.get(b"key-%05d" % i) == b"v" * 40


def test_fifo_expires_old_data():
    options = _small_options(
        compaction_style="fifo",
        fifo_max_table_files_size=20 * 1024,
        write_buffer_size=4 * 1024,
    )
    with DB("/db", options) as db:
        for i in range(3000):
            db.put(b"key-%05d" % i, b"v" * 50)
        db.compact_range()
        total = sum(size for size in db.level_sizes())
        assert total <= 24 * 1024  # cap plus one in-flight file
        # The newest keys are present, the oldest were expired.
        assert db.get(b"key-%05d" % 2999) == b"v" * 50
        assert db.get(b"key-00000") is None
        assert db.stats.counter("db.fifo_expirations").value > 0


def test_fifo_ttl_expires_old_files():
    from repro.util.clock import VirtualClock

    clock = VirtualClock(start=1000.0)
    options = _small_options(
        compaction_style="fifo",
        fifo_max_table_files_size=100 * 1024 * 1024,  # size never triggers
        fifo_ttl_seconds=60.0,
        clock=clock,
    )
    with DB("/db", options) as db:
        for i in range(200):
            db.put(b"old-%03d" % i, b"v" * 50)
        db.flush()
        clock.advance(120.0)  # old files age past the TTL
        for i in range(200):
            db.put(b"new-%03d" % i, b"v" * 50)
        db.compact_range()
        assert db.get(b"new-000") == b"v" * 50     # fresh data retained
        assert db.get(b"old-000") is None          # expired with its file
        assert db.stats.counter("db.fifo_expirations").value > 0


def test_stats_counters_move():
    with DB("/db", _small_options()) as db:
        for i in range(300):
            db.put(b"key-%04d" % i, b"x" * 30)
        db.get(b"key-0001")
        db.flush()
        assert db.stats.counter("db.writes").value == 300
        assert db.stats.counter("db.gets").value == 1
        assert db.stats.counter("db.flushes").value >= 1


def test_multithreaded_writers():
    import threading

    options = _small_options()
    errors = []
    with DB("/db", options) as db:
        def writer(tid):
            try:
                for i in range(100):
                    db.put(b"t%d-k%03d" % (tid, i), b"v%d" % tid)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for tid in range(4):
            for i in range(0, 100, 13):
                assert db.get(b"t%d-k%03d" % (tid, i)) == b"v%d" % tid


def test_read_while_writing():
    import threading

    with DB("/db", _small_options()) as db:
        db.put(b"stable", b"value")
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    assert db.get(b"stable") == b"value"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(2000):
            db.put(b"key-%05d" % i, b"x" * 40)
        stop.set()
        thread.join()
        assert not errors


def test_write_slowdown_regime():
    """Above the slowdown trigger, writes are throttled (counted) but not
    blocked; data stays correct throughout."""
    options = _small_options(
        level0_file_num_compaction_trigger=100,  # pile L0 files up
        level0_slowdown_writes_trigger=2,
        level0_stop_writes_trigger=100,
        slowdown_delay_s=0.0001,
        write_buffer_size=2 * 1024,
    )
    with DB("/db", options) as db:
        for i in range(600):
            db.put(b"key-%04d" % i, b"x" * 50)
        assert db.stats.counter("db.slowdown_writes").value > 0
        for i in range(0, 600, 53):
            assert db.get(b"key-%04d" % i) == b"x" * 50


def test_each_write_above_the_slowdown_trigger_pays_the_penalty_once():
    """L0 at the slowdown trigger, no memtable immutable and no job claimed
    (FIFO under its cap has nothing to do): every write adds exactly one to
    ``db.slowdown_writes`` and sleeps exactly ``slowdown_delay_s`` on the
    engine's clock, a group of one as much as a batch."""
    clock, delay = VirtualClock(), 0.25
    options = Options(
        env=MemEnv(), clock=clock, compaction_style="fifo",
        level0_slowdown_writes_trigger=2, slowdown_delay_s=delay,
    )
    with DB("/db", options) as db:
        for i in range(2):
            db.put(b"seed-%d" % i, b"v")
            db.flush()
        assert db.num_files_at_level(0) == 2
        slowed = db.stats.counter("db.slowdown_writes")
        writes = [
            lambda i: db.put(b"key-%02d" % i, b"v"),
            lambda i: db.delete(b"seed-0"),
            lambda i: db.write(WriteBatch().put(b"a", b"1").put(b"b", b"2")),
        ]
        for i in range(30):
            count, now = slowed.value, clock.now()
            writes[i % len(writes)](i)
            assert slowed.value == count + 1
            assert clock.now() == now + delay
        assert db.num_files_at_level(0) == 2


@pytest.mark.parametrize("overrides", [
    dict(compaction_style="fifo"),  # under its 8 MiB cap FIFO deletes nothing
    dict(level0_stop_writes_trigger=2),  # the stop below the L0 trigger
    dict(level0_file_num_compaction_trigger=20),  # the L0 trigger above the stop
], ids=["fifo", "stop-below-trigger", "trigger-above-stop"])
def test_writers_do_not_wait_on_l0_that_no_job_will_lower(overrides):
    """The stop trigger blocks writers only while a background job is
    claimed: with none, nothing will lower L0, and 4 MiB of puts (16 L0
    files at the default write buffer) must still go through.  The writes
    run on a thread joined with a bound, so a hang fails in seconds."""
    db = DB("/db", Options(env=MemEnv(), **overrides))
    value, done = b"v" * 1024, threading.Event()

    def write():
        for i in range(4000):
            db.put(b"key-%05d" % i, value)
        done.set()

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        writer.join(30.0)
        assert done.is_set(), f"writers blocked at L0 = {db.num_files_at_level(0)}"
        for i in range(0, 4000, 397):
            assert db.get(b"key-%05d" % i) == value
    finally:
        db.close()  # wakes a blocked writer, whose put then fails
        writer.join(30.0)


def test_wal_files_cleaned_after_flush():
    env = MemEnv()
    with DB("/db", _small_options(env=env)) as db:
        for i in range(500):
            db.put(b"key-%04d" % i, b"x" * 40)
        db.flush()
        wal_files = [n for n in env.list_dir("/db") if n.endswith(".log")]
        assert len(wal_files) == 1  # only the active WAL remains


def _cache_stats(db: DB) -> tuple[int, int, int]:
    snap = db.stats_snapshot()
    return (
        snap["db.block_cache.hits"],
        snap["db.block_cache.misses"],
        snap["db.block_cache.usage_bytes"],
    )


def test_compaction_leaves_the_block_cache_alone():
    """Compaction neither looks its inputs up in the block cache nor puts
    them there: what the foreground cached of live files stays as it was."""
    options = _small_options(level0_file_num_compaction_trigger=2)
    with DB("/db", options) as db:
        for i in range(300):
            db.put(b"a-%04d" % i, b"value-%04d" % i)
        db.force_compaction()  # one live file at the bottom level
        for i in range(300):
            assert db.get(b"a-%04d" % i) == b"value-%04d" % i
        before = _cache_stats(db)
        assert before[2] > 0

        # Two overlapping L0 files in a key range of their own: the merge
        # they trigger reads and drops only files the foreground never read.
        for batch in range(2):
            for i in range(40):
                db.put(b"b-%d-%04d" % ((batch + i) % 2, i), b"x" * 20)
            db.flush()
        db.wait_for_compaction()
        assert db.stats_snapshot()["db.compactions"] >= 2
        assert _cache_stats(db) == before


def test_dropped_sst_takes_its_blocks_out_of_the_cache():
    with DB("/db", _small_options()) as db:
        for i in range(300):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        for i in range(300):
            assert db.get(b"key-%04d" % i) == b"value-%04d" % i
        assert db.get_property("repro.block-cache-usage") > 0
        # Rewrites every file; the old ones die with blocks still cached.
        db.force_compaction()
        assert db.get_property("repro.block-cache-usage") == 0
        assert db.get(b"key-0007") == b"value-0007"
        assert db.get_property("repro.block-cache-usage") > 0


@pytest.mark.parametrize(
    "style, bottom",
    [("leveled", True), ("lazy-leveled", True), ("universal", False), ("fifo", False)],
)
def test_force_compaction_merges_every_file_into_one_level(style, bottom):
    """A full merge lands at the bottom level of a leveled tree and in L0,
    the only level a universal or FIFO tree uses."""
    options = _small_options(
        compaction_style=style, fifo_max_table_files_size=1 << 30
    )
    with DB("/db", options) as db:
        for i in range(600):
            db.put(b"key-%04d" % (i % 300), b"value-%04d" % i)
        db.force_compaction()
        files = db._versions.current.all_files()
        assert files
        expected = options.num_levels - 1 if bottom else 0
        assert {level for level, __ in files} == {expected}
        for i in range(300, 600):
            assert db.get(b"key-%04d" % (i % 300)) == b"value-%04d" % i
