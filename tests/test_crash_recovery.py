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

import threading

import pytest

from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.errors import IOError_
from repro.integrity import MemoryTrustedCounter
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB, SP_FLUSH_BEFORE_SST
from repro.lsm.options import Options, WriteOptions
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import VirtualClock
from repro.util.syncpoint import SYNC
from tests import test_adversarial_integrity as adversarial
from tests.test_adversarial_integrity import wait_until


def _options(env, **overrides):
    defaults = dict(env=env, write_buffer_size=4 * 1024, block_size=1024)
    defaults.update(overrides)
    return Options(**defaults)


def _open(system, env, kds, wal_buffer=0, counter=None):
    if system == "baseline":
        return DB("/crash", _options(env, wal_buffer_size=wal_buffer))
    if system == "encfs":
        from repro.encfs.env import EncryptedEnv

        return DB(
            "/crash",
            _options(EncryptedEnv(env, b"k" * 32), wal_buffer_size=wal_buffer),
        )
    scheme = "shake-etm" if system == "shield-etm" else "shake-ctr"
    shield = ShieldOptions(kds=kds, scheme=scheme, wal_buffer_size=wal_buffer)
    return open_shield_db("/crash", shield, _options(env, trusted_counter=counter))


class _SharedEncFS:
    """EncFS needs the same instance key across 'restarts'."""


@pytest.mark.parametrize("system", ["baseline", "shield", "shield-etm"])
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
    everything the buffer flushed is recoverable after a process crash --
    stream cipher or sealed units alike."""
    for system in ("shield", "shield-etm"):
        env = MemEnv()
        kds = InMemoryKDS()
        db = _open(system, env, kds, wal_buffer=256)
        for i in range(100):
            db.put(b"key-%04d" % i, b"x" * 100)  # >> buffer: most get flushed
        db.put(b"tail-key", b"tail-value")       # likely still buffered
        db.simulate_crash()
        if crash == "system":
            env.crash_system()

        recovered = _open(system, env, kds)
        try:
            survived = sum(
                1 for i in range(100)
                if recovered.get(b"key-%04d" % i) is not None
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
    for system in ("shield", "shield-etm"):
        env = MemEnv()
        kds = InMemoryKDS()
        db = _open(system, env, kds, wal_buffer=4096)
        db.put(b"must-survive", b"1", WriteOptions(sync=True))
        db.simulate_crash()
        env.crash_system()
        recovered = _open(system, env, kds)
        try:
            assert recovered.get(b"must-survive") == b"1"
        finally:
            recovered.close()


@pytest.mark.parametrize("system", ["baseline", "shield", "shield-etm"])
def test_a_failed_buffer_flush_keeps_the_writes_acked_before_it(system):
    """A sync that returns makes every write acked before it durable -- also
    when a WAL buffer flush between them failed and took its write down."""
    env = FaultInjectionEnv(MemEnv())
    kds = InMemoryKDS()
    db = _open(system, env, kds, wal_buffer=512)
    db.put(b"a", b"A" * 10)                  # acked, still in the buffer
    env.fail_paths(lambda path: path.endswith(".log"))
    with pytest.raises(IOError_):
        db.put(b"b", b"B" * 600)             # fills the buffer; its flush fails
    env.heal()
    db.put(b"c", b"C", WriteOptions(sync=True))
    db.simulate_crash()
    env.crash_system()

    recovered = _open(system, env, kds, wal_buffer=512)
    try:
        assert recovered.get(b"a") == b"A" * 10
        assert recovered.get(b"b") is None   # it raised: no frame of it stays
        assert recovered.get(b"c") == b"C"
    finally:
        recovered.close()


@pytest.mark.parametrize("system", ["shield", "shield-etm"])
def test_a_failed_manifest_record_is_not_replayed(system):
    """A flush whose MANIFEST sync fails leaves its record in the file's
    tail, unapplied.  The retried flush must not make that record durable:
    a reopen would replay an edit the trusted counter never saw land."""
    env = FaultInjectionEnv(MemEnv())
    kds, counter = InMemoryKDS(), MemoryTrustedCounter()
    db = _open(system, env, kds, counter=counter)
    for i in range(40):
        db.put(b"key-%04d" % i, b"v%04d" % i)
    env.fail_syncs(predicate=lambda path: "MANIFEST" in path)
    with pytest.raises(IOError_):
        db.flush()
    assert env.injected_failures >= 1
    env.heal()
    assert db.try_recover()
    db.flush()                                # the stopped flush runs again
    db.simulate_crash()
    env.crash_system()

    recovered = _open(system, env, kds, counter=counter)
    try:
        for i in range(40):
            assert recovered.get(b"key-%04d" % i) == b"v%04d" % i
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


# ---------------------------------------------------------------------------
# The background-work contract.  Work is derived from state: whatever changes
# the state announces it, and the work the new state makes due runs -- no
# caller schedules anything.  A job that fails changes the state it was
# derived from, so it is attempted once, not until it succeeds.
# ---------------------------------------------------------------------------


def _flushes(db):
    return db.stats.counter("db.flushes").value


def _compactions(db):
    return db.stats.counter("db.compactions").value


def _fill(db, memtables):
    """Write ``memtables`` write buffers' worth through ``put`` alone."""
    for i in range(memtables * 4):
        db.put(b"key-%04d" % i, b"v" * 1024)


def _memtable_switch(env):
    with DB("/crash", _options(env)) as db:
        _fill(db, 1)
        # ``db.flushes`` counts the SST before the flush installs it: wait for
        # both, or a wake-up in between sees the memtable still immutable.
        wait_until(db, lambda: _flushes(db) >= 1 and (
            db.get_property("repro.immutable-memtables") == 0
        ))


def _flush_install(env):
    options = _options(env, level0_file_num_compaction_trigger=2)
    with DB("/crash", options) as db:
        _fill(db, 2)
        wait_until(db, lambda: _compactions(db) >= 1)


def _compaction_install(env):
    """The L0 -> L1 merge leaves L1 over its budget: L1 -> L2 is due."""
    options = _options(
        env, level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=4 * 1024, target_file_size=2 * 1024,
    )
    with DB("/crash", options) as db:
        _fill(db, 3)
        wait_until(db, lambda: db.num_files_at_level(2) >= 1)


def _reopen_at_stop_trigger(env):
    """Every recovery with a non-empty WAL adds an L0 file like any flush
    does; with nobody announcing it, a store reopened until L0 reached the
    stop trigger blocked its next write forever (once the suite's occasional
    hang: the model test's ``reopen`` rule drawn often enough)."""
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
    assert written.wait(30.0), "a write waits for a compaction nobody started"
    with DB("/crash", _options(env, **options)) as db:
        assert db.get(b"key-9") == b"value"


def _try_recover(env):
    faulty = FaultInjectionEnv(env)
    with DB("/crash", _options(faulty)) as db:
        faulty.fail_paths(lambda path: path.endswith(".sst"))
        with pytest.raises(IOError_):
            _fill(db, 3)  # the flush dies; the writes behind it fail fast
        db.wait_for_compaction()
        assert db.health()["state"] == "degraded" and _flushes(db) == 0
        faulty.heal()
        assert db.try_recover()
        wait_until(
            db, lambda: db.get_property("repro.immutable-memtables") == 0
        )
        assert _flushes(db) >= 1 and db.get(b"key-0000") == b"v" * 1024


def _policy_flip(env):
    """Three runs are no work for the tiered policy and a due merge for the
    leveled one: a store left by a universal DB and reopened as leveled
    starts that merge at open, with nothing written since."""
    options = dict(
        write_buffer_size=1 << 20, level0_file_num_compaction_trigger=3,
    )
    with DB("/crash", _options(env, compaction_style="universal", **options)) as db:
        for batch in range(3):
            db.put(b"key-%d" % batch, b"value")
            db.flush()
        db.wait_for_compaction()
        assert db.num_files_at_level(0) == 3 and _compactions(db) == 0
    with DB("/crash", _options(env, compaction_style="leveled", **options)) as db:
        wait_until(db, lambda: _compactions(db) == 1)  # counted after install
        assert db.num_files_at_level(0) == 0 and db.num_files_at_level(1) == 1
        assert db.get(b"key-2") == b"value"


def _quarantine_heal(env):
    adversarial.test_healed_quarantine_resumes_compaction()  # in its own env


@pytest.mark.parametrize(
    "change",
    [
        _memtable_switch, _flush_install,
        _compaction_install, _reopen_at_stop_trigger,
        _try_recover, _policy_flip,
        _quarantine_heal,
    ],
    ids=lambda change: change.__name__.strip("_"),
)
def test_a_state_change_runs_the_work_it_makes_due(change):
    """No case calls ``flush()``, ``wait_for_compaction()`` or
    ``compact_range()`` between the change and the work it waits for."""
    change(MemEnv())


@pytest.mark.parametrize(
    "job,fault",
    [
        ("flush", "kds-outage"), ("flush", "revoked"),
        ("merge", "kds-outage"), ("merge", "tampered"),
    ],
)
def test_a_failing_job_is_attempted_once(job, fault):
    """...and ``wait_for_compaction()`` returns: asked again, the engine
    derives nothing from the state the failure left behind."""
    kds = FaultyKDS(SimulatedKDS(clock=VirtualClock(), request_latency_s=0.0))
    kds.authorize_server("server-1")
    env, db = adversarial._three_parked_l0_files(
        "local", kds, lambda batch, i: b"key-%d-%04d" % (batch, i)
    )

    def strike():
        if fault == "kds-outage":
            kds.go_down()
        elif fault == "revoked":
            kds.revoke_server("server-1")
        else:
            victim = adversarial._sst_paths(env, "/adv")[0]
            adversarial._flip_payload_byte(env, victim, skew=0.3)

    def attempts():
        snap = db.stats_snapshot()
        return (
            kds.requests, snap["db.flushes"], snap.get("db.compactions", 0),
            snap.get("integrity.compaction_auth_aborts", 0),
        )

    try:
        if job == "flush":
            # Inside the job: struck any earlier, the memtable switch itself
            # fails (no DEK for the next WAL) and no flush is ever due.
            db.put(b"k", b"v")
            SYNC.set_callback(SP_FLUSH_BEFORE_SST, strike)
            SYNC.enable()
            with pytest.raises(IOError_):
                db.flush()
            SYNC.clear()
        else:
            strike()
            adversarial._release_compaction(db)
        db.wait_for_compaction()  # nothing is running from here on
        after_one = attempts()
        assert after_one[1:] == (3, 0, 1 if fault == "tampered" else 0)
        db.wait_for_compaction()
        assert attempts() == after_one
    finally:
        SYNC.clear()
        db.close()


@pytest.mark.parametrize("system", ["shield", "shield-etm"])
def test_synced_writes_after_a_failed_switch_record_still_reopen(system):
    """A memtable switch whose MANIFEST sync fails leaves storage at the old
    root or the new one, whichever the crash keeps: the synced writes that
    follow on the old WAL must not anchor the counter to either alone."""
    env = FaultInjectionEnv(MemEnv())
    kds, counter = InMemoryKDS(), MemoryTrustedCounter()
    db = _open(system, env, kds, counter=counter)
    for i in range(40):
        db.put(b"key-%04d" % i, b"v%04d" % i)
    env.fail_syncs(predicate=lambda path: "MANIFEST" in path)
    with pytest.raises(IOError_):
        db.flush()
    env.heal()
    for i in range(5):
        db.put(b"synced-%d" % i, b"s", WriteOptions(sync=True))
    db.simulate_crash()
    env.crash_system()

    recovered = _open(system, env, kds, counter=counter)
    try:
        assert all(recovered.get(b"synced-%d" % i) == b"s" for i in range(5))
        assert all(recovered.get(b"key-%04d" % i) == b"v%04d" % i for i in range(40))
    finally:
        recovered.close()
