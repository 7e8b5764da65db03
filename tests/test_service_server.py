"""Tests for the socket server: ops, pipelining, backpressure, auth."""

import socket
import threading
import time

import pytest

from repro.env.mem import MemEnv
from repro.errors import AuthorizationError, BusyError, ServiceError
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.service.client import KVClient
from repro.service.protocol import Message
from repro.service.server import KVServer, ServiceConfig
from repro.shield import ShieldOptions, open_shield_db


def _open_db(path="/svc", **options):
    options.setdefault("env", MemEnv())
    options.setdefault("write_buffer_size", 64 * 1024)
    return DB(path, Options(**options))


class _BlockingDB:
    """Wraps a DB; gets of ``block_key`` wait until ``release`` is set."""

    def __init__(self, db, block_key=b"__slow__"):
        self.db = db
        self.block_key = block_key
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, key, opts=None):
        if key == self.block_key:
            self.entered.set()
            self.release.wait(timeout=10.0)
        return self.db.get(key, opts)

    def __getattr__(self, name):
        return getattr(self.db, name)


# -- operation roundtrips ----------------------------------------------------


def test_all_operations_roundtrip():
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            client.ping()
            client.put(b"a", b"1")
            client.put(b"b", b"2")
            assert client.get(b"a") == b"1"
            assert client.get(b"missing") is None
            client.delete(b"a")
            assert client.get(b"a") is None

            batch = WriteBatch()
            for i in range(20):
                batch.put(b"batch-%02d" % i, b"v%02d" % i)
            client.write(batch)
            assert client.get(b"batch-07") == b"v07"

            pairs = client.scan(b"batch-", b"batch-\xff", limit=5)
            assert pairs == [(b"batch-%02d" % i, b"v%02d" % i) for i in range(5)]

            client.flush()
            client.compact_range()
            assert client.get(b"batch-07") == b"v07"  # survives flush+compact

            stats = client.stats()
            assert stats["committed_sequence"] == client.committed_sequence()
            assert stats["server"]["service.get"] >= 2
    db.close()


def test_committed_sequence_advances_with_writes():
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            before = client.committed_sequence()
            for i in range(10):
                client.put(b"seq-%d" % i, b"v")
            assert client.committed_sequence() == before + 10
    db.close()


def test_server_over_shield_engine():
    db = open_shield_db("/svc-shield", ShieldOptions(kds=InMemoryKDS()),
                        Options(env=MemEnv()))
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            client.put(b"secret", b"ciphertext-at-rest")
            client.flush()
            assert client.get(b"secret") == b"ciphertext-at-rest"
    db.close()


def test_errors_travel_as_typed_frames():
    db = _open_db()
    db.close()  # every engine call now raises IOError_
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            from repro.errors import IOError_

            with pytest.raises(IOError_):
                client.put(b"k", b"v")


# -- pipelining and concurrency ---------------------------------------------


def test_pipeline_mixed_operations_in_order():
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            # Answers come back in request order, but KVServer does not
            # order one connection's requests across its workers: a request
            # that depends on another goes in a later execute().
            pipe = client.pipeline()
            for i in range(30):
                pipe.put(b"p-%02d" % i, b"v-%02d" % i)
            assert len(pipe.execute()) == 30
            pipe = client.pipeline()
            pipe.get(b"p-11").delete(b"p-12")
            pipe.scan(b"p-", b"p-\xff", limit=3)
            results = pipe.execute()
            assert results[0] == b"v-11"
            assert results[2] == [(b"p-%02d" % i, b"v-%02d" % i)
                                  for i in (0, 1, 2)]
            assert client.pipeline().get(b"p-12").execute() == [None]
    db.close()


def test_concurrent_clients_no_cross_talk():
    db = _open_db()
    errors: list = []

    def worker(tag):
        try:
            with KVClient(*server.address) as client:
                for i in range(60):
                    key = b"%s-%03d" % (tag, i)
                    client.put(key, tag * 3 + b"-%03d" % i)
                for i in range(60):
                    key = b"%s-%03d" % (tag, i)
                    assert client.get(key) == tag * 3 + b"-%03d" % i
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    with KVServer(db, ServiceConfig(num_workers=4)) as server:
        threads = [threading.Thread(target=worker, args=(b"t%d" % t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert errors == []
    db.close()


def test_raw_pipelined_requests_match_by_id():
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        with socket.create_connection(server.address) as sock:
            for i in range(10):
                protocol.send_message(sock, Message(
                    protocol.OP_PUT, 100 + i,
                    protocol.encode_put(b"r-%d" % i, b"v-%d" % i),
                ))
            seen = set()
            reader = protocol.FrameReader(sock)
            for __ in range(10):
                response = reader.read()
                assert response.opcode == protocol.RESP_OK
                seen.add(response.request_id)
            assert seen == {100 + i for i in range(10)}
    db.close()


# -- backpressure ------------------------------------------------------------


def test_queue_overflow_returns_busy_for_excess_request():
    """Queue depth N, one blocked worker: request N+2 must bounce BUSY."""
    depth = 3
    blocking = _BlockingDB(_open_db())
    with KVServer(blocking, ServiceConfig(
        num_workers=1, max_queue_depth=depth,
    )) as server:
        with socket.create_connection(server.address) as sock:
            # Request 1 occupies the only worker...
            protocol.send_message(sock, Message(
                protocol.OP_GET, 1, protocol.encode_key(blocking.block_key)
            ))
            assert blocking.entered.wait(timeout=5.0)
            # ...requests 2..N+1 fill the queue...
            for i in range(depth):
                protocol.send_message(sock, Message(
                    protocol.OP_GET, 2 + i, protocol.encode_key(b"q-%d" % i)
                ))
            deadline = time.monotonic() + 5.0
            while (server._queue.qsize() < depth
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert server._queue.qsize() == depth
            # ...and request N+2 must be rejected immediately.
            protocol.send_message(sock, Message(
                protocol.OP_GET, 99, protocol.encode_key(b"overflow")
            ))
            reader = protocol.FrameReader(sock)
            response = reader.read()
            assert response.opcode == protocol.RESP_BUSY
            assert response.request_id == 99
            assert server.stats.counter("service.busy_rejections").value == 1

            blocking.release.set()
            done = {response.request_id}
            while len(done) < 1 + depth + 1:
                done.add(reader.read().request_id)
            assert done == {1, 99} | {2 + i for i in range(depth)}
    blocking.db.close()


def test_client_retries_busy_until_queue_drains():
    blocking = _BlockingDB(_open_db())
    with KVServer(blocking, ServiceConfig(
        num_workers=1, max_queue_depth=1,
    )) as server:
        host, port = server.address
        slow = KVClient(host, port)
        filler = KVClient(host, port)
        results: list = []
        t_slow = threading.Thread(
            target=lambda: results.append(slow.get(blocking.block_key))
        )
        t_slow.start()
        assert blocking.entered.wait(timeout=5.0)
        t_fill = threading.Thread(
            target=lambda: results.append(filler.get(b"filler"))
        )
        t_fill.start()
        deadline = time.monotonic() + 5.0
        while (server._queue.qsize() < 1
               and time.monotonic() < deadline):
            time.sleep(0.005)

        writer = KVClient(host, port, max_retries=40)
        threading.Timer(0.2, blocking.release.set).start()
        writer.put(b"after-drain", b"made-it")  # BUSY until the drain
        assert writer.busy_retries > 0
        t_slow.join()
        t_fill.join()
        assert writer.get(b"after-drain") == b"made-it"
        for client in (slow, filler, writer):
            client.close()
    blocking.db.close()


def test_busy_error_surfaces_when_retries_exhausted():
    blocking = _BlockingDB(_open_db())
    with KVServer(blocking, ServiceConfig(
        num_workers=1, max_queue_depth=1,
    )) as server:
        host, port = server.address
        slow = KVClient(host, port)
        filler = KVClient(host, port)
        threads = [
            threading.Thread(target=lambda: slow.get(blocking.block_key)),
            threading.Thread(target=lambda: filler.get(b"fill")),
        ]
        threads[0].start()
        assert blocking.entered.wait(timeout=5.0)
        threads[1].start()
        deadline = time.monotonic() + 5.0
        while (server._queue.qsize() < 1
               and time.monotonic() < deadline):
            time.sleep(0.005)
        impatient = KVClient(host, port, max_retries=2,
                             backoff_base_s=0.001, backoff_max_s=0.002)
        with pytest.raises(BusyError):
            impatient.put(b"nope", b"nope")
        blocking.release.set()
        for thread in threads:
            thread.join()
        for client in (slow, filler, impatient):
            client.close()
    blocking.db.close()


def test_large_pipeline_does_not_deadlock_on_tcp_buffers():
    """A pipeline far bigger than both TCP buffers must complete: the
    sliding in-flight window reads responses while sending, so neither
    side can end up blocked on a full peer buffer."""
    db = _open_db(write_buffer_size=512 * 1024)
    value = b"x" * 4096
    count = 600
    with KVServer(db, ServiceConfig(num_workers=2)) as server:
        with KVClient(*server.address, timeout_s=30.0) as client:
            pipe = client.pipeline(max_inflight=16)
            for i in range(count):
                pipe.put(b"big-%04d" % i, value)
            assert pipe.execute() == [None] * count
            pipe = client.pipeline(max_inflight=16)
            for i in range(count):
                pipe.get(b"big-%04d" % i)
            results = pipe.execute()
            assert len(results) == count
            assert all(r == value for r in results)
    db.close()


# -- authorization -----------------------------------------------------------


def _auth_server(db):
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("trusted")
    return KVServer(db, ServiceConfig(require_auth=True, kds=kds)), kds


def test_auth_required_rejects_anonymous_and_unauthorized():
    db = _open_db()
    server, __ = _auth_server(db)
    with server:
        host, port = server.address
        with KVClient(host, port) as anonymous:
            with pytest.raises(AuthorizationError):
                anonymous.get(b"k")
        with pytest.raises(AuthorizationError):
            KVClient(host, port, server_id="intruder").ping()
    db.close()


def test_auth_accepts_kds_authorized_server():
    db = _open_db()
    server, kds = _auth_server(db)
    with server:
        with KVClient(*server.address, server_id="trusted") as client:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
        assert server.stats.counter("service.auth_accepted").value >= 1
    db.close()


def test_revocation_applies_to_new_connections():
    db = _open_db()
    server, kds = _auth_server(db)
    with server:
        host, port = server.address
        client = KVClient(host, port, server_id="trusted", pool_size=0)
        client.ping()
        client.close()
        kds.revoke_server("trusted")
        with pytest.raises(AuthorizationError):
            KVClient(host, port, server_id="trusted").ping()
    db.close()


# -- lifecycle ---------------------------------------------------------------


def test_graceful_stop_completes_inflight_writes():
    db = _open_db()
    server = KVServer(db, ServiceConfig()).start()
    client = KVClient(*server.address)
    for i in range(100):
        client.put(b"g-%03d" % i, b"v")
    server.stop()
    server.stop()  # idempotent
    client.close()
    for i in range(100):
        assert db.get(b"g-%03d" % i) == b"v"
    db.close()


def test_stop_is_prompt_and_joins_every_thread_it_started():
    """Every thread is woken, not waited out: the accept thread by a shutdown
    of the listener (a close alone leaves ``accept()`` asleep on Linux), the
    workers by their sentinels, an idle connection's reader by its socket."""
    db = _open_db()
    server = KVServer(db, ServiceConfig()).start()
    with KVClient(*server.address) as client, \
            socket.create_connection(server.address) as idle:
        client.put(b"k", b"v")
        deadline = time.monotonic() + 5.0
        while len(server._conn_threads) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        threads = [
            server._accept_thread, server._health_thread,
            *server._workers, *server._conn_threads,
        ]
        assert len(threads) == 2 + server.config.num_workers + 2
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        assert idle.recv(1) == b""  # the server hung up on it
    assert [thread.name for thread in threads if thread.is_alive()] == []
    assert elapsed < 0.5  # ~1 ms; it was 2.0 s, one join timing out
    db.close()


def test_stop_returns_despite_full_queue_and_stuck_worker():
    """Shutdown must stay bounded even when the request queue is full and
    the only worker is wedged inside a handler (it cannot drain the queue
    or accept a blocking sentinel put)."""
    blocking = _BlockingDB(_open_db())
    server = KVServer(blocking, ServiceConfig(
        num_workers=1, max_queue_depth=1, drain_timeout_s=0.2,
    )).start()
    sock = socket.create_connection(server.address)
    try:
        protocol.send_message(sock, Message(
            protocol.OP_GET, 1, protocol.encode_key(blocking.block_key)
        ))
        assert blocking.entered.wait(timeout=5.0)  # worker is wedged
        protocol.send_message(sock, Message(
            protocol.OP_GET, 2, protocol.encode_key(b"queued")
        ))
        deadline = time.monotonic() + 5.0
        while server._queue.qsize() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert server._queue.qsize() == 1  # the bounded queue is full
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0
    finally:
        blocking.release.set()
        sock.close()
        blocking.db.close()


def test_conn_thread_list_is_pruned():
    """Dead reader threads are dropped at accept time, so the list does
    not grow with every connection the server ever served."""
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        for __ in range(8):
            with KVClient(*server.address, pool_size=0) as client:
                client.ping()
        # Each fresh accept prunes readers that have since finished.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with KVClient(*server.address, pool_size=0) as client:
                client.ping()
            if len(server._conn_threads) <= 3:
                break
            time.sleep(0.01)
        assert len(server._conn_threads) <= 3
    db.close()


def test_address_requires_started_server():
    with pytest.raises(ServiceError):
        KVServer(_open_db()).address


def test_stopped_server_refuses_new_connections():
    db = _open_db()
    server = KVServer(db, ServiceConfig()).start()
    address = server.address
    server.stop()
    with pytest.raises((ConnectionError, OSError, ServiceError)):
        KVClient(*address, timeout_s=0.5, max_retries=1,
                 backoff_base_s=0.001).ping()
    db.close()
