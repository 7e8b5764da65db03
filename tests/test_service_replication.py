"""Tests for WAL-shipping replication: resume, lag, revocation, snapshot."""

import threading
import time

import pytest

from repro.env.mem import MemEnv
from repro.errors import AuthorizationError
from repro.keys.client import KeyClient
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service.replica import Replica, ReplicaState, ReplicationSource
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
    assert source.earliest_sequence == 2  # resumes below this need a snapshot
    assert source.records_after(3) == source.records_after(0)[1:]
    assert source.wait_records_after(4, timeout=0.05) == []
    source.close()
    assert source.closed
    db.close()


# -- resume and convergence --------------------------------------------------


def test_reconnect_resumes_from_carried_state():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        state = ReplicaState()
        first = Replica(host, port, server_id="replica-1",
                        key_client=KeyClient(kds, "replica-1"), state=state)
        first.start()
        for i in range(20):
            db.put(b"r-%03d" % i, b"v1-%03d" % i)
        assert first.wait_until_caught_up(db.committed_sequence())
        first.stop()
        applied_before = state.last_applied
        assert applied_before == 20

        # Writes while the replica is down...
        for i in range(20, 40):
            db.put(b"r-%03d" % i, b"v1-%03d" % i)

        # ...a restarted replica resumes from the carried state, not zero.
        second = Replica(host, port, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1"), state=state)
        second.start()
        assert second.wait_until_caught_up(db.committed_sequence())
        assert second.last_resume_sequence == applied_before
        assert second.snapshots_received == 0  # tail covered the gap
        for i in range(40):
            assert state.get(b"r-%03d" % i) == b"v1-%03d" % i
        second.stop()
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


# -- snapshot catch-up -------------------------------------------------------


def test_late_attached_source_ships_snapshot_first():
    kds = InMemoryKDS()
    db = _shield_db(kds)
    # History written before the server (and its source) exists: the
    # retained log cannot cover a from-zero resume.
    for i in range(120):
        db.put(b"s-%04d" % i, b"snap-%04d" % i)
    db.delete(b"s-0007")
    with KVServer(db, ServiceConfig(repl_chunk_entries=32)) as server:
        host, port = server.address
        replica = Replica(host, port, server_id="replica-1",
                          key_client=KeyClient(kds, "replica-1"))
        replica.start()
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.snapshots_received >= 1
        assert server.stats.counter("service.repl_snapshots").value == 1
        assert replica.get(b"s-0007") is None  # tombstone not resurrected
        for i in range(120):
            if i != 7:
                assert replica.get(b"s-%04d" % i) == b"snap-%04d" % i
        # Live tailing continues after the snapshot.
        db.put(b"after-snap", b"live")
        assert replica.wait_until_caught_up(db.committed_sequence())
        assert replica.get(b"after-snap") == b"live"
        replica.stop()
    db.close()


def test_snapshot_catchup_resets_carried_state():
    """A snapshot must replace carried-over state, not layer on top of it.

    Keys deleted while the replica was down are simply absent from the
    snapshot; if the old entries (at higher real sequences than the
    snapshot's synthetic ones) survived, they would stay newest-visible
    forever -- resurrecting deletes and shadowing overwrites.
    """
    kds = InMemoryKDS()
    db = _shield_db(kds)
    state = ReplicaState()
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        first = Replica(host, port, server_id="replica-1",
                        key_client=KeyClient(kds, "replica-1"), state=state)
        first.start()
        for i in range(10):
            db.put(b"sn-%02d" % i, b"v1-%02d" % i)
        assert first.wait_until_caught_up(db.committed_sequence())
        first.stop()
    # While the replica is down: a delete and an overwrite, and the
    # server (with its retained log) goes away entirely.
    db.delete(b"sn-03")
    db.put(b"sn-04", b"v2-04")
    with KVServer(db, ServiceConfig()) as server:
        # The fresh source's earliest_sequence is past the replica's
        # resume point, so catch-up takes the snapshot path -- onto a
        # replica that still carries its pre-crash state.
        second = Replica(*server.address, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1"), state=state)
        second.start()
        assert second.wait_until_caught_up(db.committed_sequence())
        assert second.snapshots_received >= 1
        assert second.get(b"sn-03") is None        # delete not resurrected
        assert second.get(b"sn-04") == b"v2-04"    # overwrite not shadowed
        pairs = second.scan(b"sn-", b"sn-\xff")
        assert pairs == [(b"sn-%02d" % i,
                          b"v2-04" if i == 4 else b"v1-%02d" % i)
                         for i in range(10) if i != 3]
        # Live tailing still works after the reset.
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
        assert revoked.snapshots_received == 0
        assert len(revoked.state) == 0
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
