"""Tests for the group-commit (pipelined writer) path."""

import threading
import time

import pytest

from repro.env.base import EnvWrapper, WritableFileWrapper
from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.errors import IOError_
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options, WriteOptions
from repro.shield import ShieldOptions, open_shield_db


def _options(env, **overrides):
    defaults = dict(env=env, write_buffer_size=64 * 1024, block_size=1024)
    defaults.update(overrides)
    return Options(**defaults)


def _hammer(db, num_threads=6, per_thread=300, value=b"v"):
    errors = []

    def writer(thread_id):
        try:
            for i in range(per_thread):
                db.put(b"t%02d-%04d" % (thread_id, i), value)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(t,)) for t in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


def test_groups_form_under_contention():
    # A small WAL-append latency makes the leader hold the commit long
    # enough for followers to pile up, so grouping is deterministic
    # rather than at the mercy of scheduler timing on a loaded machine.
    from repro.env.latency import LatencyEnv, LatencyModel

    env = LatencyEnv(MemEnv(), LatencyModel(write_op_s=0.0005))
    db = DB("/g", _options(env))
    with db:
        errors = _hammer(db)
        assert not errors
        groups = db.stats.counter("db.write_groups").value
        writes = db.stats.counter("db.writes").value
        assert writes == 6 * 300
        # Group commit batches: strictly fewer leader passes than writes.
        assert 0 < groups < writes
        # Everything readable.
        for t in range(6):
            assert db.get(b"t%02d-0000" % t) == b"v"


def test_single_writer_group_size_one():
    db = DB("/g", _options(MemEnv()))
    with db:
        for i in range(50):
            db.put(b"k-%02d" % i, b"v")
        assert db.stats.counter("db.write_groups").value == 50


class _ParkingEnv(EnvWrapper):
    """Counts WAL appends once ``armed``, and holds the first of them until
    ``release`` is set."""

    def __init__(self, inner):
        super().__init__(inner)
        self.armed = False
        self.wal_appends = 0
        self.parked = threading.Event()
        self.release = threading.Event()

    def new_writable_file(self, path):
        handle = self.inner.new_writable_file(path)
        return _ParkingFile(handle, self) if path.endswith(".log") else handle


class _ParkingFile(WritableFileWrapper):
    def __init__(self, inner, env):
        super().__init__(inner)
        self._env = env

    def append(self, data):
        env = self._env
        if env.armed:
            env.wal_appends += 1
            if env.wal_appends == 1:
                env.parked.set()
                env.release.wait(timeout=30)
        self._inner.append(data)


def test_group_commit_reduces_encryptions_under_contention():
    """The encryption-relevant payoff: a group of N writers is one WAL unit,
    one seal and one cipher init, even without the WAL buffer.  The first
    writer's append is held until five more are queued behind it, so the
    second group is always those five."""
    from repro.crypto.cipher import CRYPTO_STATS

    env = _ParkingEnv(MemEnv())
    db = open_shield_db(
        "/g",
        ShieldOptions(kds=InMemoryKDS(), wal_buffer_size=0),
        _options(env),
    )
    with db:
        inits = CRYPTO_STATS.counter("crypto.context_inits")
        before = inits.value
        env.armed = True
        threads = [
            threading.Thread(target=db.put, args=(b"k%d" % i, b"v"))
            for i in range(6)
        ]
        try:
            threads[0].start()
            assert env.parked.wait(timeout=30)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 10
            while len(db._write_queue) < 5:  # queued behind the parked leader
                assert time.monotonic() < deadline, "writers did not queue"
        finally:
            env.release.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert db.stats.counter("db.writes").value == 6
        # One WAL unit, one seal, one init per group: [first], [the five].
        assert env.wal_appends == db.stats.counter("db.write_groups").value == 2
        assert inits.value - before == 2
        assert all(db.get(b"k%d" % i) == b"v" for i in range(6))


def test_group_sync_covers_all_members():
    env = MemEnv()
    db = DB("/g", _options(env))
    barrier = threading.Barrier(4)
    errors = []

    def writer(thread_id, sync):
        try:
            barrier.wait()
            db.put(
                b"s-%d" % thread_id, b"v", WriteOptions(sync=sync)
            )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(t, t == 0)) for t in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # One member's sync made the whole group durable.
    env.crash_system()
    recovered = DB("/g", _options(env))
    try:
        survivors = sum(
            1 for t in range(4) if recovered.get(b"s-%d" % t) is not None
        )
        # At minimum, everything committed in or before the syncing
        # member's group survived; requester 0 is always durable.
        assert recovered.get(b"s-0") == b"v" or survivors == 4
    finally:
        recovered.close()


def test_error_propagates_to_every_group_member():
    inner = MemEnv()
    env = FaultInjectionEnv(inner)
    db = DB("/g", _options(env))
    env.fail_paths(lambda path: path.endswith(".log"))
    errors = _hammer(db, num_threads=4, per_thread=50)
    # Every writer thread observed the failure (no silent acks).
    assert errors
    assert all(isinstance(exc, IOError_) for exc in errors)
    env.heal()
    db.simulate_crash()


def test_batches_remain_atomic_in_groups():
    from repro.lsm.write_batch import WriteBatch

    db = DB("/g", _options(MemEnv()))
    with db:
        errors = []

        def writer(thread_id):
            try:
                for i in range(100):
                    batch = WriteBatch()
                    batch.put(b"a-%02d-%03d" % (thread_id, i), b"1")
                    batch.put(b"b-%02d-%03d" % (thread_id, i), b"2")
                    db.write(batch)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for t in range(4):
            for i in range(0, 100, 13):
                assert db.get(b"a-%02d-%03d" % (t, i)) == b"1"
                assert db.get(b"b-%02d-%03d" % (t, i)) == b"2"
