"""Systematic crash-injection matrix.

Crash kinds (Section 5.3's persistence analysis):

- *process* crash: the OS page cache survives -- everything appended to a
  WAL is recoverable; only SHIELD's application buffer is lost.
- *system* crash: unsynced page-cache bytes are lost too -- only data
  synced (explicitly, or by flush/compaction) survives.

For every system x crash kind we verify the recovered state is a correct
prefix: every surviving key has its latest value, and synced keys always
survive.
"""

import pytest

from repro.bench.systems import make_system
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options, WriteOptions
from repro.shield import ShieldOptions, open_shield_db


def _options(env, **overrides):
    defaults = dict(env=env, write_buffer_size=4 * 1024, block_size=1024)
    defaults.update(overrides)
    return Options(**defaults)


def _open(system, env, kds, wal_buffer=0):
    if system == "baseline":
        return DB("/crash", _options(env, wal_buffer_size=wal_buffer))
    if system == "encfs":
        from repro.encfs.env import EncryptedEnv

        return DB(
            "/crash",
            _options(EncryptedEnv(env, b"k" * 32), wal_buffer_size=wal_buffer),
        )
    shield = ShieldOptions(kds=kds, wal_buffer_size=wal_buffer)
    return open_shield_db("/crash", shield, _options(env))


class _SharedEncFS:
    """EncFS needs the same instance key across 'restarts'."""


@pytest.mark.parametrize("system", ["baseline", "shield"])
@pytest.mark.parametrize("crash", ["process", "system"])
def test_crash_matrix_unbuffered(system, crash):
    env = MemEnv()
    kds = InMemoryKDS()
    db = _open(system, env, kds, wal_buffer=0)
    for i in range(200):
        db.put(b"key-%04d" % i, b"v%04d" % i)
    db.put(b"synced-key", b"synced-value", WriteOptions(sync=True))
    for i in range(200, 230):
        db.put(b"key-%04d" % i, b"late-%04d" % i)
    db.simulate_crash()
    if crash == "system":
        env.crash_system()

    recovered = _open(system, env, kds, wal_buffer=0)
    try:
        # Explicitly synced data survives every crash kind.
        assert recovered.get(b"synced-key") == b"synced-value"
        if crash == "process":
            # Unbuffered WAL + process crash: everything appended survives.
            for i in range(230):
                assert recovered.get(b"key-%04d" % i) is not None
        # Whatever survived must carry its *latest* value (prefix property).
        for i in range(230):
            value = recovered.get(b"key-%04d" % i)
            expected = b"late-%04d" % i if i >= 200 else b"v%04d" % i
            assert value in (None, expected)
    finally:
        recovered.close()


@pytest.mark.parametrize("crash", ["process", "system"])
def test_crash_matrix_wal_buffer(crash):
    """SHIELD's WAL buffer: the buffered tail is lost on either crash, but
    everything the buffer flushed is recoverable after a process crash."""
    env = MemEnv()
    kds = InMemoryKDS()
    db = _open("shield", env, kds, wal_buffer=256)
    for i in range(100):
        db.put(b"key-%04d" % i, b"x" * 100)  # >> buffer: most get flushed
    db.put(b"tail-key", b"tail-value")       # likely still buffered
    db.simulate_crash()
    if crash == "system":
        env.crash_system()

    recovered = _open("shield", env, kds)
    try:
        survived = sum(
            1 for i in range(100) if recovered.get(b"key-%04d" % i) is not None
        )
        if crash == "process":
            # All flushed records survive; at most the final buffer is lost.
            assert survived >= 95
        # Values that survive are intact.
        for i in range(100):
            value = recovered.get(b"key-%04d" % i)
            assert value in (None, b"x" * 100)
    finally:
        recovered.close()


def test_sync_flushes_shield_wal_buffer():
    env = MemEnv()
    kds = InMemoryKDS()
    db = _open("shield", env, kds, wal_buffer=4096)
    db.put(b"must-survive", b"1", WriteOptions(sync=True))
    db.simulate_crash()
    env.crash_system()
    recovered = _open("shield", env, kds)
    try:
        assert recovered.get(b"must-survive") == b"1"
    finally:
        recovered.close()


def test_crash_during_heavy_compaction_load():
    """Crash while flushes/compactions are in flight; recovery must yield a
    consistent database (no corruption, latest-or-nothing values)."""
    env = MemEnv()
    options = _options(
        env,
        level0_file_num_compaction_trigger=2,
        max_background_jobs=2,
    )
    db = DB("/crash", options)
    for i in range(2000):
        db.put(b"key-%05d" % (i % 500), b"gen-%05d" % i)
    db.simulate_crash()

    recovered = DB("/crash", _options(env))
    try:
        for i in range(500):
            value = recovered.get(b"key-%05d" % i)
            assert value is not None
            assert value.startswith(b"gen-")
            generation = int(value[4:])
            assert generation % 500 == i  # value belongs to this key
    finally:
        recovered.close()


def test_double_crash_recovery():
    """Crash during the run, reopen, crash again immediately, reopen."""
    env = MemEnv()
    db = DB("/crash", _options(env))
    for i in range(300):
        db.put(b"key-%04d" % i, b"v")
    db.simulate_crash()
    second = DB("/crash", _options(env))
    second.simulate_crash()
    third = DB("/crash", _options(env))
    try:
        for i in range(300):
            assert third.get(b"key-%04d" % i) == b"v"
    finally:
        third.close()


def test_orphan_sst_garbage_collected():
    """A half-written SST from a crashed flush is removed on recovery."""
    env = MemEnv()
    db = DB("/crash", _options(env))
    db.put(b"k", b"v")
    db.close()
    # Plant an orphan file that no MANIFEST references.
    env.write_file("/crash/009999.sst", b"LSMFgarbage-from-crashed-flush")
    recovered = DB("/crash", _options(env))
    try:
        assert not env.file_exists("/crash/009999.sst")
        assert recovered.get(b"k") == b"v"
    finally:
        recovered.close()


def test_recovery_is_idempotent():
    env = MemEnv()
    db = DB("/crash", _options(env))
    for i in range(100):
        db.put(b"key-%03d" % i, b"v%03d" % i)
    db.close()
    for _ in range(3):
        db = DB("/crash", _options(env))
        for i in range(100):
            assert db.get(b"key-%03d" % i) == b"v%03d" % i
        db.close()


def test_reopening_up_to_the_stop_trigger_does_not_block_the_next_write():
    """Every recovery with a non-empty WAL adds an L0 file.  Nothing used to
    schedule the compaction that file made due, so a store reopened until L0
    reached the stop trigger blocked its next write forever (the suite's
    occasional hang: the model test's ``reopen`` rule drawn often enough)."""
    import threading

    env = MemEnv()
    options = dict(
        write_buffer_size=1 << 20, level0_file_num_compaction_trigger=4,
        level0_stop_writes_trigger=6,
    )
    written = threading.Event()

    def writes():
        db = DB("/crash", _options(env, **options))
        for i in range(10):
            db.put(b"key-%d" % i, b"value")  # in the WAL only
            db.close()
            db = DB("/crash", _options(env, **options))
        written.set()
        db.close()

    threading.Thread(target=writes, daemon=True).start()
    assert written.wait(30.0), "a write waits for a compaction nobody scheduled"
    with DB("/crash", _options(env, **options)) as db:
        assert db.get(b"key-9") == b"value"
