"""Tests for replication: resume, lag, revocation, checkpoint catch-up."""

import threading
import time

import pytest

from repro.env.base import EnvWrapper
from repro.env.mem import MemEnv
from repro.errors import AuthorizationError, KDSUnavailableError
from repro.keys.client import KeyClient
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB, MAX_IMMUTABLE_MEMTABLES
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service.replica import Replica, ReplicationSource
from repro.service.server import KVServer, ServiceConfig
from repro.shield import ShieldOptions, open_shield_db


def _plain_db(path="/repl"):
    return DB(path, Options(env=MemEnv(), write_buffer_size=64 * 1024))


def _shield_db(kds, path="/repl-shield", server_id="primary"):
    return open_shield_db(
        path, ShieldOptions(kds=kds, server_id=server_id),
        Options(env=MemEnv(), write_buffer_size=64 * 1024),
    )


# -- engine hook (the WAL tail) ---------------------------------------------


def test_commit_listener_sees_every_batch_in_order():
    db = _plain_db()
    seen = []
    db.add_commit_listener(lambda f, l, p: seen.append((f, l, p)))
    db.put(b"a", b"1")
    batch = WriteBatch()
    batch.put(b"b", b"2")
    batch.put(b"c", b"3")
    batch.delete(b"a")
    db.write(batch)
    assert [(f, l) for f, l, __ in seen] == [(1, 1), (2, 4)]
    # The payload is the exact serialized batch: replayable.
    first_seq, rebuilt = WriteBatch.deserialize(seen[1][2])
    assert first_seq == 2
    assert list(rebuilt.items()) == list(batch.items())
    assert db.committed_sequence() == 4
    db.close()


def test_commit_listener_removal_and_error_isolation():
    db = _plain_db()
    calls = []

    def bad_listener(f, l, p):
        raise RuntimeError("listener bug")

    db.add_commit_listener(bad_listener)
    db.add_commit_listener(lambda f, l, p: calls.append(f))
    db.put(b"k", b"v")  # the bad listener must not poison the write
    assert db.get(b"k") == b"v"
    assert calls == [1]
    assert db.stats.counter("db.commit_listener_errors").value == 1
    db.remove_commit_listener(bad_listener)
    db.put(b"k2", b"v2")
    assert db.stats.counter("db.commit_listener_errors").value == 1
    db.close()


def test_replication_source_retention_and_waiting():
    # The log retains what the engine may hold unflushed: 3 write buffers
    # of 16 bytes hold two of these 19-byte single-op records, not three.
    db = DB("/repl", Options(env=MemEnv(), write_buffer_size=16))
    source = ReplicationSource(db)
    assert source.earliest_sequence == 0
    for i in range(4):
        db.put(b"k-%d" % i, b"v")
    assert [f for f, __, ___ in source.records_after(0)] == [3, 4]
    assert source.retained_bytes == 2 * 19
    assert source.earliest_sequence == 2  # resumes below this need a checkpoint
    assert source.records_after(3) == source.records_after(0)[1:]
    assert source.wait_records_after(4, timeout=0.05) == []
    source.close()
    assert source.closed
    db.close()


# -- resume and convergence --------------------------------------------------


class _WriteRecordingEnv(EnvWrapper):
    """Remembers every file created through it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.created: list[str] = []

    def new_writable_file(self, path):
        self.created.append(path.rpartition("/")[2])
        return self.inner.new_writable_file(path)


def _ssts(env, path="/replica"):
    return {name for name in env.list_dir(path) if name.endswith(".sst")}


def test_reconnect_resumes_from_carried_state():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    env = _WriteRecordingEnv(MemEnv())  # the replica's directory, carried over
    for i in range(20):
        db.put(b"r-%03d" % i, b"v1-%03d" % i)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        first = Replica(host, port, server_id="replica-1",
                        key_client=KeyClient(kds, "replica-1"),
                        options=Options(env=env))
        first.start()
        assert first.wait_until_caught_up(db.committed_sequence())
        assert first.checkpoints_received == 1  # the log began after its base
        for i in range(20, 40):
            db.put(b"r-%03d" % i, b"v1-%03d" % i)
        assert first.wait_until_caught_up(db.committed_sequence())
        assert first.last_applied == 40
        first.stop()

        # Writes while the replica is down...
        for i in range(40, 60):
            db.put(b"r-%03d" % i, b"v1-%03d" % i)

        # ...a replica restarted over the same directory resumes from what its
        # files hold, not zero; the log covers the gap, so no file moves.
        env.created.clear()
        second = Replica(host, port, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1"),
                         options=Options(env=env))
        second.start()
        assert second.wait_until_caught_up(db.committed_sequence())
        assert second.last_resume_sequence == 20
        assert second.checkpoints_received == 0  # tail covered the gap
        assert second.file_bytes_received == 0 and env.created == []
        for i in range(60):
            assert second.get(b"r-%03d" % i) == b"v1-%03d" % i
        second.stop()
    db.close()


def test_restart_past_the_log_ships_only_the_missing_ssts():
    kds = InMemoryKDS()
    db = open_shield_db(
        "/repl-restart", ShieldOptions(kds=kds, server_id="primary"),
        Options(env=MemEnv(), write_buffer_size=8 * 1024),
    )
    env = _WriteRecordingEnv(MemEnv())
    for i in range(200):
        db.put(b"m-%04d" % i, b"first-%04d" % i)
    db.force_compaction()  # the bottom level: later writes never merge into it
    with KVServer(db, ServiceConfig()) as server:
        first = Replica(*server.address, server_id="replica-1",
                        key_client=KeyClient(kds, "replica-1"),
                        options=Options(env=env))
        with first:
            assert first.wait_until_caught_up(db.committed_sequence())
        held = _ssts(env)
        assert held
        # Three write buffers and more: the retained log no longer reaches
        # back to what the replica's files hold.
        for i in range(200, 1000):
            db.put(b"m-%04d" % i, b"later-%04d" % i)
        env.created.clear()
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(kds, "replica-1"),
                     options=Options(env=env)) as second:
            assert second.wait_until_caught_up(db.committed_sequence())
            assert second.checkpoints_received == 1
            shipped = {name for name in env.created if name.endswith(".sst")}
            assert shipped and not shipped & held
            assert held & _ssts(env)  # still live on the primary: not re-sent
            # A compaction may retire a file mid-copy (the copy restarts),
            # and the install deletes it again: more may have been sent.
            assert _ssts(env) - held <= shipped
            assert second.scan() == db.scan()
    db.close()


def test_restart_over_files_the_primary_retired_starts_over():
    """Between incarnations the primary rewrote every file and retired the
    DEKs of the originals: the restarted replica's copies cannot be opened,
    so it drops them and is caught up from an empty store -- no error
    served, no stale value."""
    kds = InMemoryKDS()
    db = _shield_db(kds, path="/repl-retired")
    env = MemEnv()
    for i in range(50):
        db.put(b"t-%03d" % i, b"old-%03d" % i)
    with KVServer(db, ServiceConfig()) as server:
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(kds, "replica-1"),
                     options=Options(env=env)) as first:
            assert first.wait_until_caught_up(db.committed_sequence())
        for i in range(0, 50, 2):
            db.put(b"t-%03d" % i, b"new-%03d" % i)
        db.force_compaction()  # every SST DEK the first replica holds retired
        second = Replica(*server.address, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1"),
                         options=Options(env=env))
        assert second.last_error is not None and second.live_files() == []
        with second:
            assert second.wait_until_caught_up(db.committed_sequence())
            assert second.scan() == db.scan()
            assert second.quarantined_files() == []
    db.close()


def test_a_kds_outage_at_restart_keeps_the_replicas_files():
    """An outage is not a retired copy: the restart fails, the directory
    stays, and once the KDS is back the replica resumes from it."""
    kds = InMemoryKDS()
    db = _shield_db(kds, path="/repl-outage")
    env = _WriteRecordingEnv(MemEnv())
    for i in range(50):
        db.put(b"o-%03d" % i, b"v-%03d" % i)
    faulty = FaultyKDS(kds)  # the replica's path to the KDS, not the primary's
    with KVServer(db, ServiceConfig()) as server:
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(faulty, "replica-1"),
                     options=Options(env=env)) as first:
            assert first.wait_until_caught_up(db.committed_sequence())
        held = _ssts(env)
        assert held
        faulty.go_down()
        with pytest.raises(KDSUnavailableError):
            Replica(*server.address, server_id="replica-1",
                    key_client=KeyClient(faulty, "replica-1"),
                    options=Options(env=env))
        assert _ssts(env) == held and env.file_exists("/replica/CURRENT")
        faulty.come_up()
        env.created.clear()
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(faulty, "replica-1"),
                     options=Options(env=env)) as second:
            assert second.wait_until_caught_up(db.committed_sequence())
            assert second.last_error is None
            assert second.checkpoints_received == 0 and env.created == []
            assert second.scan() == db.scan()
    db.close()


def test_a_failed_install_leaves_the_stream_applying_to_what_is_served():
    """A checkpoint whose install fails (here a KDS flap while it opens the
    new files) changes nothing the replica serves.  The stream resumes where
    the replica's tail ends, which the log still covers, so no checkpoint
    follows -- and what it applies is what reads see."""
    kds = InMemoryKDS()
    db = open_shield_db(
        "/repl-flap", ShieldOptions(kds=kds, server_id="primary"),
        Options(env=MemEnv(), write_buffer_size=4 * 1024),
    )
    faulty = FaultyKDS(kds)
    with KVServer(db, ServiceConfig()) as server:
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(faulty, "replica-1"),
                     reconnect_backoff_s=0.01) as replica:
            assert replica.wait_connected(10.0)  # the stream DEK is resolved
            faulty.go_down()
            # One write at a time, each applied before the next: when the log
            # drops past the replica's base the checkpoint goes out with the
            # replica caught up, and its install meets the outage.
            i = 0
            while not replica.kds_flaps:
                assert i < 1000, "three write buffers of log never dropped"
                db.put(b"f-%04d" % i, b"v-%04d" % i * 16)
                i += 1
                replica.wait_until_caught_up(db.committed_sequence(), 0.5)
            faulty.come_up()
            assert replica.wait_until_caught_up(db.committed_sequence())
            assert replica.checkpoints_received == 0
            for j in range(i):
                assert replica.get(b"f-%04d" % j) == b"v-%04d" % j * 16
            # Later installs succeed and trim the tail as usual.
            while not replica.checkpoints_received:
                db.put(b"f-%04d" % i, b"v-%04d" % i * 16)
                i += 1
                assert replica.wait_until_caught_up(db.committed_sequence())
            assert replica.scan() == db.scan()
    db.close()


def test_a_replicas_tail_is_bounded_by_the_primarys_log():
    """Checkpoints trim the tail: after ten write buffers of writes the
    replica holds at most twice what the primary may keep unflushed, not
    the dataset.  Reads racing the installs see a value of their key or
    nothing, never an error."""
    kds = InMemoryKDS()
    write_buffer_size = 8 * 1024
    db = open_shield_db(
        "/repl-bounded", ShieldOptions(kds=kds, server_id="primary"),
        Options(env=MemEnv(), write_buffer_size=write_buffer_size),
    )
    bound = 2 * write_buffer_size * (1 + MAX_IMMUTABLE_MEMTABLES)
    done, failures = threading.Event(), []

    def read_along(replica):
        try:
            while not done.is_set():
                for key, value in replica.scan(b"b-00100", limit=20):
                    assert int(value[2:8]) % 700 == int(key[2:]), (key, value)
                value = replica.get(b"b-00007")
                assert value is None or int(value[2:8]) % 700 == 7, value
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    with KVServer(db, ServiceConfig()) as server:
        with Replica(*server.address, server_id="replica-1",
                     key_client=KeyClient(kds, "replica-1")) as replica:
            assert replica.wait_connected(10.0)
            reader = threading.Thread(target=read_along, args=(replica,))
            reader.start()
            peak = written = i = 0
            while written < 10 * write_buffer_size:
                key, value = b"b-%05d" % (i % 700), b"v-%06d" % i * 8
                db.put(key, value)
                written += len(key) + len(value)
                i += 1
                if i % 50 == 0:  # in step: what the tail holds at its fullest
                    assert replica.wait_until_caught_up(db.committed_sequence())
                    peak = max(peak, replica.tail_bytes)
            done.set()
            reader.join()
            assert failures == []
            assert 0 < peak <= bound
            assert replica.checkpoints_received >= 3
            assert replica.wait_until_caught_up(db.committed_sequence())
            assert replica.scan() == db.scan()
    db.close()


def test_lagging_replica_converges_under_write_load():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        replica = Replica(host, port, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"))
        replica.start()

        def load(start):
            for i in range(start, start + 150):
                db.put(b"load-%04d" % i, b"val-%04d" % i)

        writers = [threading.Thread(target=load, args=(t * 150,))
                   for t in range(3)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        final_seq = db.committed_sequence()
        assert replica.wait_until_caught_up(final_seq, timeout=15.0)
        for i in range(450):
            assert replica.get(b"load-%04d" % i) == b"val-%04d" % i
        # Deletes replicate too.
        db.delete(b"load-0000")
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.get(b"load-0000") is None
        replica.stop()
    db.close()


def test_crash_and_reconnect_mid_stream():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        replica = Replica(host, port, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"),
                          reconnect_backoff_s=0.01)
        replica.start()
        assert replica.wait_connected(timeout=5.0)
        for i in range(50):
            db.put(b"c-%03d" % i, b"v")
            if i == 25:
                replica.simulate_crash()
        assert replica.wait_until_caught_up(db.committed_sequence(), timeout=15.0)
        assert replica.subscriptions >= 2  # it really did resubscribe
        for i in range(50):
            assert replica.get(b"c-%03d" % i) == b"v"
        replica.stop()
    db.close()


def test_a_streams_dek_is_retired_when_the_stream_ends():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    live = []
    with KVServer(db, ServiceConfig()) as server:
        streams = server.stats.gauge("service.repl_streams")
        for round_ in range(5):
            replica = Replica(*server.address, server_id="replica-1",
                              key_client=KeyClient(kds, "replica-1"))
            replica.start()
            db.put(b"round-%d" % round_, b"v")
            assert replica.wait_until_caught_up(db.committed_sequence())
            replica.close()
            # The primary learns that a replica left at its next send.
            deadline = time.monotonic() + 10.0
            while streams.value and time.monotonic() < deadline:
                db.put(b"nudge", b"v")
                time.sleep(0.01)
            assert streams.value == 0
            live.append(kds.live_dek_count())
    db.close()
    # Each round provisioned a stream DEK; none outlived its stream.
    assert live == [live[0]] * 5


# -- checkpoint catch-up -----------------------------------------------------


def test_late_attached_source_ships_snapshot_first():
    """A late subscriber is caught up by a checkpoint: the primary's files."""
    kds = InMemoryKDS()
    db = _shield_db(kds)
    # History written before the server (and its source) exists: the
    # retained log cannot cover a from-zero resume.
    for i in range(120):
        db.put(b"s-%04d" % i, b"snap-%04d" % i)
    db.delete(b"s-0007")
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        replica = Replica(host, port, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"))
        replica.start()
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.checkpoints_received == 1
        assert server.stats.counter("service.repl_checkpoints").value == 1
        assert replica.get(b"s-0007") is None  # tombstone not resurrected
        for i in range(120):
            if i != 7:
                assert replica.get(b"s-%04d" % i) == b"snap-%04d" % i
        # Live tailing continues after the checkpoint.
        db.put(b"after-snap", b"live")
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.get(b"after-snap") == b"live"
        replica.stop()
    db.close()


def test_snapshot_catchup_resets_carried_state():
    """A checkpoint replaces the carried-over store, it does not layer on
    top of it: what the replica serves afterwards is exactly the primary's
    file set, with the deletes and overwrites made while it was down."""
    kds = InMemoryKDS()
    db = _shield_db(kds)
    env = MemEnv()  # the replica's directory, carried over
    for i in range(10):
        db.put(b"sn-%02d" % i, b"v1-%02d" % i)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        first = Replica(host, port, server_id="replica-1",
                        key_client=KeyClient(kds, "replica-1"),
                        options=Options(env=env))
        first.start()
        assert first.wait_until_caught_up(db.committed_sequence())
        first.stop()
    # While the replica is down: a delete and an overwrite, and the
    # server (with its retained log) goes away entirely.
    db.delete(b"sn-03")
    db.put(b"sn-04", b"v2-04")
    with KVServer(db, ServiceConfig()) as server:
        # The fresh source's earliest_sequence is past the replica's base,
        # so catch-up takes the checkpoint path -- onto a replica that
        # still carries its pre-crash store.
        second = Replica(*server.address, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1"),
                         options=Options(env=env))
        second.start()
        assert second.wait_until_caught_up(db.committed_sequence())
        assert second.checkpoints_received == 1
        assert second.get(b"sn-03") is None        # delete not resurrected
        assert second.get(b"sn-04") == b"v2-04"    # overwrite not shadowed
        pairs = second.scan(b"sn-", b"sn-\xff")
        assert pairs == [(b"sn-%02d" % i,
                          b"v2-04" if i == 4 else b"v1-%02d" % i)
                         for i in range(10) if i != 3]
        assert _ssts(env) == {
            "%06d.sst" % meta.number for __, meta in db.live_files()
        }
        # Live tailing still works after the checkpoint.
        db.put(b"sn-live", b"v")
        assert second.wait_until_caught_up(db.committed_sequence())
        assert second.get(b"sn-live") == b"v"
        second.stop()
    db.close()


def test_replication_through_require_auth_server():
    """OP_REPL_SUBSCRIBE carries its own KDS-checked server ID, so a
    replica needs no separate AUTH exchange even when the server demands
    one from regular clients."""
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("primary")
    kds.authorize_server("replica-1")
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig(require_auth=True)) as server:
        replica = Replica(*server.address, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"))
        replica.start()
        db.put(b"k", b"v")
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.get(b"k") == b"v"
        replica.stop()
        # The exemption is not a bypass: an unauthorized replica is still
        # refused by the KDS policy check inside the subscription.
        evil = Replica(*server.address, server_id="replica-evil",
                       key_client=KeyClient(kds, "replica-evil"))
        evil.start()
        assert evil.join(timeout=5.0)
        assert isinstance(evil.last_error, AuthorizationError)
        evil.stop()
    db.close()


def test_replica_scan_merges_applied_state():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        replica = Replica(*server.address, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"))
        replica.start()
        for i in range(10):
            db.put(b"scan-%02d" % i, b"v%02d" % i)
        db.delete(b"scan-03")
        assert replica.wait_until_caught_up(db.committed_sequence())
        pairs = replica.scan(b"scan-", b"scan-\xff")
        assert pairs == [(b"scan-%02d" % i, b"v%02d" % i)
                         for i in range(10) if i != 3]
        assert replica.scan(b"scan-", limit=2) == pairs[:2]
        replica.stop()
    db.close()


# -- authorization / revocation ---------------------------------------------


def test_revoked_replica_is_refused_wal_frames():
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("primary")
    kds.authorize_server("replica-good")
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        for i in range(10):
            db.put(b"sec-%d" % i, b"classified")

        revoked = Replica(host, port, server_id="replica-evil",
                          key_client=KeyClient(kds, "replica-evil"))
        revoked.start()
        assert revoked.join(timeout=5.0)  # terminal: no reconnect loop
        assert isinstance(revoked.last_error, AuthorizationError)
        assert revoked.frames_received == 0
        assert revoked.checkpoints_received == 0
        assert revoked.file_bytes_received == 0
        assert revoked.scan() == []
        assert not revoked.connected
        revoked.stop()

        good = Replica(host, port, server_id="replica-good",
                       key_client=KeyClient(kds, "replica-good"))
        good.start()
        assert good.wait_until_caught_up(db.committed_sequence())
        assert good.get(b"sec-3") == b"classified"
        good.stop()
    db.close()


def test_revocation_after_the_fact_blocks_resubscription():
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("primary")
    kds.authorize_server("replica-1")
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        replica = Replica(*server.address, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"),
                          reconnect_backoff_s=0.01)
        replica.start()
        db.put(b"k", b"v")
        assert replica.wait_until_caught_up(db.committed_sequence())
        frames_before = replica.frames_received

        kds.revoke_server("replica-1")
        replica.simulate_crash()  # force a resubscription attempt
        assert replica.join(timeout=5.0)  # refused -> loop terminates
        assert isinstance(replica.last_error, AuthorizationError)
        db.put(b"post-revoke", b"v2")
        time.sleep(0.1)
        assert replica.frames_received == frames_before
        assert replica.get(b"post-revoke") is None
        replica.stop()
    db.close()


def test_sharded_db_cannot_be_subscribed():
    from repro.dist.sharding import ShardedDB
    from repro.errors import InvalidArgumentError

    env = MemEnv()
    cluster = ShardedDB(
        "/repl-cluster", 2,
        lambda i, path: DB(path, Options(env=env, write_buffer_size=16 * 1024)),
    )
    with KVServer(cluster, ServiceConfig()) as server:
        replica = Replica(*server.address, server_id="r", auto_reconnect=False)
        replica.start()
        assert replica.join(timeout=5.0)
        assert isinstance(replica.last_error, InvalidArgumentError)
    cluster.close()
