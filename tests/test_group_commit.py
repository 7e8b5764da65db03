"""Tests for the group-commit (pipelined writer) path."""

import threading
import time

import pytest

from repro.dist.network import NetworkConfig, NetworkLink
from repro.dist.remote_env import RemoteEnv, StorageServer
from repro.env.base import EnvWrapper, WritableFileWrapper
from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.errors import IOError_
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options, WriteOptions
from repro.lsm.wal import frame_record
from repro.lsm.write_batch import WriteBatch
from repro.shield import ShieldOptions, open_shield_db
from tests.test_obs_e2e import traced


def _options(env, **overrides):
    defaults = dict(env=env, write_buffer_size=64 * 1024, block_size=1024)
    defaults.update(overrides)
    return Options(**defaults)


def _remote(rtt_s):
    """A MemEnv behind a link that charges ``rtt_s`` per append, sync and
    metadata call (no bandwidth charge); returns the env and its link."""
    link = NetworkLink(NetworkConfig(rtt_s=rtt_s, bandwidth_bytes_per_s=0))
    return RemoteEnv(StorageServer(MemEnv()), link), link


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
    env, __ = _remote(0.0005)
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
    """A lone writer commits groups of one, and what each write records is
    exact: its ops, its group, its user bytes (key + value + 1 a put, key +
    1 a delete: the write-amplification signal's denominator) and, traced,
    the attributes of its ``db.write`` span and of that span's WAL append."""
    db = DB("/g", _options(MemEnv()))
    with db:
        for i in range(50):
            db.put(b"k-%02d" % i, b"v")
        assert db.stats.counter("db.write_groups").value == 50
        for i in range(0, 50, 5):
            db.delete(b"k-%02d" % i)
        db.put(b"big", b"x" * 300)
        db.write(WriteBatch().put(b"a", b"12").delete(b"k-01"))
        assert db.stats.counter("db.writes").value == 50 + 10 + 1 + 2
        assert db.stats.counter("db.write_groups").value == 50 + 10 + 1 + 1
        assert db.stats.histogram("db.group_size").count == 62
        assert db.stats.counter("db.user_write_bytes").value == (
            50 * (4 + 1 + 1) + 10 * (4 + 1) + (3 + 300 + 1)
            + (1 + 2 + 1) + (4 + 1)
        )

    with traced() as sink:
        with DB("/t", _options(MemEnv(), wal_buffer_size=4096)) as db:
            db.put(b"key", b"value")
    (write,) = [span for span in sink.spans() if span.name == "db.write"]
    assert write.attributes == {"ops": 1}
    (append,) = [
        span for span in sink.spans()
        if span.name == "wal.append" and span.parent_id == write.span_id
    ]
    frame = frame_record(WriteBatch().put(b"key", b"value").serialize(1))
    assert append.attributes == {"nbytes": len(frame), "buffered": True}


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


@pytest.mark.parametrize("buffer_size", [0, 512])
@pytest.mark.parametrize("asked", ["wal_sync_writes", "WriteOptions.sync"])
def test_a_synced_group_costs_one_wal_fsync(asked, buffer_size):
    """However the sync was asked for, buffered or not: one fsync a group."""
    env = MemEnv()
    options = _options(
        env, wal_buffer_size=buffer_size,
        wal_sync_writes=asked == "wal_sync_writes",
    )
    opts = WriteOptions(sync=asked == "WriteOptions.sync")
    with DB("/g", options) as db:
        before = env.sync_count
        for i in range(10):
            db.put(b"k%d" % i, b"v", opts)
        assert env.sync_count - before == 10


# -- the inline commit: a lone writer's group of one ---------------------------


def _write_spans(sink):
    """Each ``db.write`` span with the ``wal.append`` spans under it."""
    spans = sink.spans()
    return [
        (write, [s for s in spans if s.name == "wal.append"
                 and s.parent_id == write.span_id])
        for write in spans if write.name == "db.write"
    ]


def test_a_lone_put_and_a_grouped_put_trace_the_same_shape():
    """``db.write{ops}`` over ``wal.append{nbytes, buffered}``, whether the
    put committed inline or as the leader of a queued group.  The first put
    overflows the WAL buffer, so its unit's append is held until the second
    put has queued behind it."""
    env = _ParkingEnv(MemEnv())
    with traced() as sink:
        db = DB("/g", _options(env, wal_buffer_size=4096))
        with db:
            env.armed = True
            lone = threading.Thread(target=db.put, args=(b"lone", b"x" * 5000))
            joined = threading.Thread(target=db.put, args=(b"joined", b"v"))
            try:
                lone.start()
                assert env.parked.wait(timeout=30)
                joined.start()
                deadline = time.monotonic() + 10
                while len(db._write_queue) < 1:
                    assert time.monotonic() < deadline, "the put did not queue"
            finally:
                env.release.set()
                lone.join(timeout=30)
                joined.join(timeout=30)
            assert db.stats.histogram("db.group_size").count == 2
    shapes = {}
    for write, appends in _write_spans(sink):
        (append,) = appends
        assert write.attributes == {"ops": 1}
        assert set(append.attributes) == {"nbytes", "buffered"}
        shapes[append.attributes["nbytes"]] = append.attributes["buffered"]
    frames = [
        frame_record(WriteBatch().put(key, value).serialize(seq))
        for seq, key, value in ((1, b"lone", b"x" * 5000), (2, b"joined", b"v"))
    ]
    assert shapes == {len(frame): True for frame in frames}


def test_a_writer_arriving_during_an_inline_commit_commits_after_it():
    """The second writer finds the write lock held, queues, and is
    committed after the inline one: its value of the shared key wins, and
    both writes survive a close and a reopen."""
    env, link = _remote(0.0)
    db = DB("/g", _options(env, wal_buffer_size=0))
    link.config.rtt_s = 0.2  # every WAL unit's append takes this long
    first = threading.Thread(
        target=db.write, args=(WriteBatch().put(b"k", b"first").put(b"a", b"1"),)
    )
    second = threading.Thread(
        target=db.write, args=(WriteBatch().put(b"k", b"second").put(b"b", b"2"),)
    )
    try:
        first.start()
        deadline = time.monotonic() + 10
        while not db._write_lock.locked():
            assert time.monotonic() < deadline, "the first writer did not commit"
        second.start()
        while len(db._write_queue) < 1:
            assert time.monotonic() < deadline, "the second writer did not queue"
    finally:
        first.join(timeout=30)
        second.join(timeout=30)
    link.config.rtt_s = 0.0
    assert db.stats.counter("db.write_groups").value == 2
    assert db.get(b"k") == b"second"
    db.close()
    with DB("/g", _options(env)) as reopened:
        assert reopened.get(b"k") == b"second"
        assert reopened.get(b"a") == b"1" and reopened.get(b"b") == b"2"


def test_the_inline_writer_refuses_a_background_error_and_a_closed_db():
    db = DB("/g", _options(MemEnv()))
    db.put(b"k", b"v")
    db._bg_error = IOError_("injected")
    with pytest.raises(IOError_, match="background error"):
        db.put(b"k", b"w")
    db._bg_error = None
    db.close()
    with pytest.raises(IOError_, match="closed"):
        db.put(b"k", b"w")
    assert db.stats.counter("db.writes").value == 1


def test_the_inline_writer_waits_at_the_l0_stop_only_while_a_job_is_claimed():
    """At the stop trigger a lone put goes through with no job claimed, and
    blocks while one is, until the claim is dropped."""
    db = DB("/g", _options(
        MemEnv(), level0_stop_writes_trigger=2,
        level0_file_num_compaction_trigger=20,
    ))
    with db:
        for i in range(2):
            db.put(b"seed-%d" % i, b"v")
            db.flush()
        assert db.num_files_at_level(0) == 2
        db.put(b"free", b"v")  # nothing claimed: nothing will lower L0
        with db._mutex:
            db._busy.add(-1)  # a job claimed, as _next_work would
        done = threading.Event()
        writer = threading.Thread(
            target=lambda: (db.put(b"held", b"v"), done.set()), daemon=True
        )
        writer.start()
        assert not done.wait(timeout=0.3), "the put ignored the stop trigger"
        with db._mutex:
            db._busy.discard(-1)
            db._cond.notify_all()
        writer.join(timeout=30)
        assert done.is_set()
        assert db.get(b"held") == b"v"


@pytest.mark.parametrize("wal", ["wal-on", "wal-off"])
def test_commit_listeners_see_the_inline_write_exactly(wal):
    db = DB("/g", _options(MemEnv(), wal_enabled=wal == "wal-on"))
    seen = []
    db.add_commit_listener(lambda *record: seen.append(record))
    with db:
        db.put(b"a", b"1")
        batch = WriteBatch().put(b"b", b"2").delete(b"a")
        db.write(batch)
        db.put(b"c", b"3", WriteOptions(disable_wal=True))
    assert seen == [
        (1, 1, WriteBatch().put(b"a", b"1").serialize(1)),
        (2, 3, batch.serialize(2)),
        (4, 4, WriteBatch().put(b"c", b"3").serialize(4)),
    ]
