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
from repro.service.replica import Replica
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
            # Answers come back in request order; a request that depends
            # on another goes in a later execute().
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

    with KVServer(db, ServiceConfig()) as server:
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


class _ScriptedBusyServer:
    """A listener that answers the first ``busy`` PUTs ``RESP_BUSY`` and
    stores the rest; GETs read what was stored, and its topology has
    nothing behind it.  ``puts`` counts every PUT it was sent."""

    def __init__(self, busy: int):
        self.busy = busy
        self.puts = 0
        self.data: dict = {}
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    @property
    def address(self):
        return self.listener.getsockname()

    def _reply(self, msg):
        if msg.opcode == protocol.OP_TOPOLOGY:
            return protocol.RESP_OK, protocol.encode_topology(())
        if msg.opcode == protocol.OP_GET:
            value = self.data.get(protocol.decode_key(msg.payload))
            if value is None:
                return protocol.RESP_NOT_FOUND, b""
            return protocol.RESP_VALUE, protocol.encode_value(value)
        self.puts += 1
        if self.puts <= self.busy:
            return protocol.RESP_BUSY, b""
        key, value = protocol.decode_put(msg.payload)
        self.data[key] = value
        return protocol.RESP_OK, protocol.encode_sequence(len(self.data))

    def _accept(self):
        while True:
            try:
                sock, __ = self.listener.accept()
            except OSError:
                return  # close() shut the listener down
            with sock:
                reader = protocol.FrameReader(sock)
                try:
                    while (msg := reader.read()) is not None:
                        opcode, payload = self._reply(msg)
                        protocol.send_message(
                            sock, Message(opcode, msg.request_id, payload)
                        )
                except OSError:
                    pass

    def close(self):
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self.listener.close()
        self.thread.join(5.0)
        assert not self.thread.is_alive()


def test_client_retries_busy_until_queue_drains():
    server = _ScriptedBusyServer(busy=3)
    try:
        with KVClient(*server.address, max_retries=40,
                      backoff_base_s=0.001, backoff_max_s=0.004) as writer:
            writer.put(b"after-drain", b"made-it")  # BUSY three times first
            assert writer.busy_retries == 3
            assert server.puts == 4
            assert writer.get(b"after-drain") == b"made-it"
    finally:
        server.close()


def test_busy_error_surfaces_when_retries_exhausted():
    server = _ScriptedBusyServer(busy=1_000)
    try:
        with KVClient(*server.address, max_retries=2,
                      backoff_base_s=0.001, backoff_max_s=0.002) as impatient:
            with pytest.raises(BusyError):
                impatient.put(b"nope", b"nope")
            assert impatient.busy_retries == 3  # every BUSY it was sent
        assert server.puts == 3  # the first try and both retries
        assert server.data == {}
    finally:
        server.close()


def test_large_pipeline_does_not_deadlock_on_tcp_buffers():
    """A pipeline far bigger than both TCP buffers must complete: the
    sliding in-flight window reads responses while sending, so neither
    side can end up blocked on a full peer buffer."""
    db = _open_db(write_buffer_size=512 * 1024)
    value = b"x" * 4096
    count = 600
    with KVServer(db, ServiceConfig()) as server:
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
    """Every thread is woken, not waited out: the loop by the EOF on its
    pipe, the health loop by its event, a replication stream by the source
    closing under it -- and an idle connection is hung up on."""
    db = _open_db()
    server = KVServer(db, ServiceConfig()).start()
    replica = Replica(*server.address, server_id="r", auto_reconnect=False)
    with KVClient(*server.address) as client, \
            socket.create_connection(server.address) as idle, replica:
        client.put(b"k", b"v")
        assert replica.wait_until_caught_up(db.committed_sequence())
        threads = [
            server._thread, server._loop._health, *server._loop._streams,
        ]
        assert len(threads) == 3
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
        assert idle.recv(1) == b""  # the server hung up on it
    assert [thread.name for thread in threads if thread.is_alive()] == []
    assert elapsed < 0.5  # ~1 ms; a join timing out would be 5 s
    replica.close()
    db.close()


def test_stop_returns_despite_full_queue_and_stuck_worker():
    """Shutdown stays bounded (``drain_timeout_s``) while the loop is wedged
    inside a handler with another request waiting behind it; the loop
    itself ends once the handler returns."""
    blocking = _BlockingDB(_open_db())
    server = KVServer(blocking, ServiceConfig(drain_timeout_s=0.2)).start()
    sock = socket.create_connection(server.address)
    try:
        protocol.send_message(sock, Message(
            protocol.OP_GET, 1, protocol.encode_key(blocking.block_key)
        ))
        assert blocking.entered.wait(timeout=5.0)  # the loop is wedged
        protocol.send_message(sock, Message(
            protocol.OP_GET, 2, protocol.encode_key(b"queued")
        ))
        started = time.monotonic()
        server.stop()
        assert 0.2 <= time.monotonic() - started < 5.0
        assert server._thread.is_alive()
        blocking.release.set()
        server._thread.join(5.0)
        assert not server._thread.is_alive()
    finally:
        blocking.release.set()
        sock.close()
        blocking.db.close()


def test_conn_thread_list_is_pruned():
    """No per-connection state outlives its connection: once a client hangs
    up, the loop holds only its pipe and its listener again."""
    db = _open_db()
    with KVServer(db, ServiceConfig()) as server:
        for __ in range(8):
            with KVClient(*server.address, pool_size=0) as client:
                client.ping()
        loop = server._loop
        deadline = time.monotonic() + 5.0
        while loop._direct and time.monotonic() < deadline:
            time.sleep(0.01)
        assert loop._direct == set()
        assert len(loop._io.selector.get_map()) == 2
        assert server.stats.counter("service.connections").value >= 8
        assert server.stats.gauge("service.direct_connections").value == 0
    db.close()


def test_a_subscription_behind_an_unsent_reply_gets_that_reply_first():
    """A connection that pipelines a scan whose reply outgrows the socket
    buffer, then subscribes, reads the whole reply before the stream: the
    loop hands the streamer what it had not sent yet."""
    db = _open_db(write_buffer_size=64 * 1024 * 1024)
    value = b"v" * (64 * 1024)
    for i in range(128):
        db.put(b"big-%03d" % i, value)
    with KVServer(db, ServiceConfig()) as server:
        with socket.create_connection(server.address, timeout=10.0) as sock:
            sock.sendall(
                protocol.encode_frame(Message(
                    protocol.OP_SCAN, 1, protocol.encode_scan(b"", None, None)
                ))
                + protocol.encode_frame(Message(
                    protocol.OP_REPL_SUBSCRIBE, 2,
                    protocol.encode_repl_subscribe("r", db.committed_sequence()),
                ))
            )
            reader = protocol.FrameReader(sock)
            scan = reader.read()
            assert (scan.opcode, scan.request_id) == (protocol.RESP_PAIRS, 1)
            assert protocol.decode_pairs(scan.payload) == [
                (b"big-%03d" % i, value) for i in range(128)
            ]
            accept = reader.read()
            assert (accept.opcode, accept.request_id) == (
                protocol.RESP_REPL_ACCEPT, 2
            )
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
