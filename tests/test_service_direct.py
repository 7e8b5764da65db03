"""The one route: shard workers as endpoints, ``KVClient`` routing to them.

In the style of ``test_service_wire_budget.py``: nothing here sleeps or
times anything.  Syscalls are counted on wrapped sockets, the front-end's
wake-ups on a counting selector, and every "the request is now in flight"
is a byte read from a pipe the (forked) worker writes to.
"""

import os
import random
import selectors
import signal
import socket
import struct
import sys
import threading
import time

import pytest

from repro.dist.sharding import shard_for_key
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.errors import AuthorizationError, InvalidArgumentError, ServiceError
from repro.keys.kds import SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service import client as client_module
from repro.service import protocol
from repro.service.client import Endpoint, KVClient
from repro.service.protocol import FrameReader, Message
from repro.service.server import KVServer, ServiceConfig, ServingLoop
from repro.service.workers import MultiProcessKVServer
from tests.test_service_wire_budget import CountingSelector

WAIT_S = 20.0


def _mem_shard(index, path):
    return DB(path, Options(env=MemEnv()))


def _durable_shard(index, path):
    env = LocalEnv()
    env.mkdirs(path)
    return DB(path, Options(env=env, wal_sync_writes=True))


def _keys_of_shard(shard: int, num_shards: int, count: int) -> list[bytes]:
    keys = (b"key-%04d" % i for i in range(100_000))
    return [k for k in keys if shard_for_key(k, num_shards) == shard][:count]


def _get(rid: int, key: bytes) -> bytes:
    return protocol.encode_frame(
        Message(protocol.OP_GET, rid, protocol.encode_key(key))
    )


def _connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=WAIT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# -- what one direct op costs ------------------------------------------------


class CountingSocket:
    """A real socket that counts the ``recv``s and ``send``s made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.recvs = 0
        self.sends = 0

    def recv(self, nbytes):
        self.recvs += 1
        return self._sock.recv(nbytes)

    def send(self, data):
        self.sends += 1
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class CountingListener:
    """``accept`` hands out :class:`CountingSocket`s and keeps them."""

    def __init__(self, listener):
        self._listener = listener
        self.accepted: list[CountingSocket] = []

    def accept(self):
        sock, addr = self._listener.accept()
        self.accepted.append(CountingSocket(sock))
        return self.accepted[-1], addr

    def __getattr__(self, name):
        return getattr(self._listener, name)


def test_a_direct_get_costs_the_worker_one_recv_and_one_send():
    db = _mem_shard(0, "/direct-budget")
    db.put(b"k", b"v")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.setblocking(False)
    counting = CountingListener(listener)
    frontend_end, worker_end = socket.socketpair()
    pipe = CountingSocket(worker_end)
    shard = ServingLoop(db, pipe, counting, ServiceConfig())
    thread = threading.Thread(target=shard.serve, daemon=True)
    thread.start()
    try:
        with _connect(listener.getsockname()) as sock:
            reader = FrameReader(sock)
            for rid in range(1, 101):
                sock.sendall(_get(rid, b"k"))
                reply = reader.read()
                assert (reply.opcode, reply.request_id) == (protocol.RESP_VALUE, rid)
            (direct,) = counting.accepted
            assert (direct.recvs, direct.sends) == (100, 100)
            assert (pipe.recvs, pipe.sends) == (0, 0)  # a lifeline only
    finally:
        frontend_end.close()  # EOF on the pipe: the worker loop ends
        thread.join(WAIT_S)
        listener.close()
        worker_end.close()
        db.close()
    assert not thread.is_alive()


def test_direct_ops_never_wake_the_front_end(tmp_path, monkeypatch):
    monkeypatch.setattr(selectors, "DefaultSelector", CountingSelector)
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient(*server.address) as client:
            client.put(b"warm", b"up")  # topology asked, worker pools open
            before = server._io.selector.wakes
            for i in range(200):
                client.put(b"key-%03d" % i, b"value-%03d" % i)
            for i in range(200):
                assert client.get(b"key-%03d" % i) == b"value-%03d" % i
            client.delete(b"key-000")
            assert client.scan(b"key-", None, 2) == [
                (b"key-001", b"value-001"), (b"key-002", b"value-002"),
            ]
            assert server._io.selector.wakes == before
            client.ping()  # ... and everything else still goes through it
            assert server._io.selector.wakes == before + 1


# -- topology discovery ------------------------------------------------------


class ScriptedServer:
    """An older server: answers ``OP_TOPOLOGY`` "unknown opcode", every GET
    NOT_FOUND; records the opcodes it was sent."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.opcodes: list[int] = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    @property
    def address(self):
        return self.listener.getsockname()

    def _accept(self):
        while True:
            try:
                sock, __ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, sock):
        reader = FrameReader(sock)
        with sock:
            while (msg := reader.read()) is not None:
                self.opcodes.append(msg.opcode)
                sock.sendall(self.reply(msg))

    def reply(self, msg: Message) -> bytes:
        if msg.opcode == protocol.OP_GET:
            reply = Message(protocol.RESP_NOT_FOUND, msg.request_id)
        else:
            reply = protocol.error_reply(msg.request_id, InvalidArgumentError(
                f"unknown opcode {msg.opcode}"
            ))
        return protocol.encode_frame(reply)

    def close(self):
        self.listener.close()


def test_an_older_server_is_asked_once_and_served_as_before():
    server = ScriptedServer()
    try:
        with KVClient(*server.address, max_retries=0) as client:
            for __ in range(5):
                assert client.get(b"k") is None
            with pytest.raises(InvalidArgumentError, match="unknown opcode 5"):
                client.scan()  # the old path's own error, not a new one
    finally:
        server.close()
    assert server.opcodes == (
        [protocol.OP_TOPOLOGY] + [protocol.OP_GET] * 5 + [protocol.OP_SCAN]
    )


def test_a_topology_that_went_unanswered_is_asked_again(tmp_path):
    """A topology request that lost its socket decides nothing: that op
    fails with the retriable ``ServiceError`` (not the front-end's refusal
    of a data op sent to it), and the next op asks again, so a transient
    failure never pins the client to the front-end."""
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient(*server.address, max_retries=0) as client:
            broken = client.home.acquire()
            broken.sock.close()  # the topology request's send fails
            client.home.release(broken)
            with pytest.raises(ServiceError, match="after retries") as failed:
                client.put(b"k", b"v")
            assert not isinstance(failed.value, InvalidArgumentError)
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
            assert len(client.workers()) == 2
        assert server.stats.snapshot()["service.topology"] == 1


class MisnumberingServer(ScriptedServer):
    """Answers its first request under the wrong request id."""

    def __init__(self):
        self.misnumbered = 1
        super().__init__()

    def reply(self, msg: Message) -> bytes:
        if self.misnumbered:
            self.misnumbered -= 1
            msg = Message(msg.opcode, msg.request_id + 1, msg.payload)
        return super().reply(msg)


class SilentServer(ScriptedServer):
    """Accepts, reads, never replies."""

    def _serve(self, sock):
        with sock:
            while sock.recv(65536):
                pass


@pytest.fixture
def opened(monkeypatch):
    """Every client socket ``socket.create_connection`` made, in order."""
    sockets = []
    connect = socket.create_connection

    def recording_connect(*args, **kwargs):
        sockets.append(connect(*args, **kwargs))
        return sockets[-1]

    monkeypatch.setattr(socket, "create_connection", recording_connect)
    return sockets


def test_a_reply_under_the_wrong_id_is_retried_on_a_fresh_connection(opened):
    server = MisnumberingServer()
    try:
        with KVClient(*server.address, backoff_base_s=0.001) as client:
            reply = client.request(protocol.OP_GET, protocol.encode_key(b"k"))
            assert reply.opcode == protocol.RESP_NOT_FOUND
            assert client.retries == 1
            first, second = opened
            assert first.fileno() == -1  # out of step: closed, never pooled
            assert [conn.sock for conn in client.home._pool] == [second]
    finally:
        server.close()
    assert server.opcodes == [protocol.OP_GET, protocol.OP_GET]


def test_timeouts_are_the_kernels_and_a_timed_out_socket_is_closed(opened):
    server = SilentServer()
    try:
        with KVClient(*server.address, timeout_s=0.2, max_retries=0) as client:
            started = time.monotonic()
            with pytest.raises(ServiceError):
                client.get(b"k")  # the topology times out, failing the GET
            assert time.monotonic() - started < 1.0
            assert len(client.home._pool) == 0
            assert len(opened) == 1
            assert all(sock.fileno() == -1 for sock in opened)
            client.home.release(client.home.acquire())  # connecting works
            (conn,) = client.home._pool
            assert conn.sock.gettimeout() is None  # blocking: no poll per call
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                seconds, micros = struct.unpack(
                    "@ll", conn.sock.getsockopt(socket.SOL_SOCKET, option, 16)
                )
                assert seconds + micros / 1e6 == pytest.approx(0.2, abs=0.01)
    finally:
        server.close()


class FakeConnection:
    """Stands in for a pooled connection: who holds it, and whether it
    was closed."""

    made: list["FakeConnection"] = []

    def __init__(self, *args):
        self.holder = None
        self.closed = False
        FakeConnection.made.append(self)

    def close(self):
        self.closed = True


def test_the_lock_free_pool_under_contention(monkeypatch):
    monkeypatch.setattr(client_module, "_PooledConnection", FakeConnection)
    monkeypatch.setattr(FakeConnection, "made", [])
    endpoint = Endpoint("127.0.0.1", 1, pool_size=3)
    errors = []
    start = threading.Barrier(9)

    def hammer():
        start.wait(WAIT_S)
        for __ in range(2000):
            conn = endpoint.acquire()
            if conn.holder is not None or conn.closed:
                errors.append("handed out twice, or closed")
            conn.holder = threading.get_ident()
            conn.holder = None
            endpoint.release(conn)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for __ in range(8)]
        for thread in threads:
            thread.start()
        start.wait(WAIT_S)
        for thread in threads:
            thread.join(WAIT_S)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    pooled = list(endpoint._pool)
    assert len(pooled) <= 3
    assert all(not conn.closed for conn in pooled)
    assert all(conn.closed for conn in FakeConnection.made if conn not in pooled)
    endpoint.close()
    assert all(conn.closed for conn in FakeConnection.made)
    endpoint.release(FakeConnection())  # given back after close(): closed
    assert FakeConnection.made[-1].closed and len(endpoint._pool) == 0


def test_a_threaded_server_and_a_worker_have_nothing_behind_them(tmp_path):
    db = _mem_shard(0, "/leaf")
    try:
        with KVServer(db) as server, KVClient(*server.address) as client:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
            assert client.workers() == []
            assert client.stats()["server"]["service.topology"] == 1
    finally:
        db.close()
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient(*server.worker_addresses[1]) as client:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
            assert client.workers() == []


def test_unreachable_worker_endpoints_fail_and_never_misroute(
    tmp_path, monkeypatch
):
    """A listed worker that refuses connections fails its own keys' ops
    like any lost socket; no key falls back onto another shard."""
    dead = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    dead.bind(("127.0.0.1", 0))
    dead_address = dead.getsockname()
    dead.close()  # nothing listens here any more: connection refused
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        live = server.worker_addresses
        monkeypatch.setattr(
            MultiProcessKVServer, "worker_addresses",
            property(lambda self: [live[0], dead_address]),
        )
        acked = []
        with KVClient(*server.address, max_retries=1,
                      backoff_base_s=0.001) as client:
            for i in range(20):
                key = b"key-%02d" % i
                try:
                    client.put(key, b"v")
                except ServiceError:
                    assert shard_for_key(key, 2) == 1
                else:
                    acked.append(key)
            with pytest.raises(ServiceError):
                client.scan()  # shard 1's part cannot be had
            assert len(client.workers()) == 2  # no fallback, for good or not
        monkeypatch.undo()
        assert acked == [k for k in acked if shard_for_key(k, 2) == 0]
        assert len(acked) > 0
        with KVClient.over([live[0]]) as shard_0, \
                KVClient.over([live[1]]) as shard_1:
            assert [k for k, __ in shard_0.scan()] == acked
            assert shard_1.scan() == []
        assert "service.put" not in server.stats.snapshot()


# -- a direct connection is a TCP edge ---------------------------------------


def test_a_direct_connection_must_authenticate_like_any_other(tmp_path):
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("good-client")
    config = ServiceConfig(require_auth=True, kds=kds)
    with MultiProcessKVServer(
        str(tmp_path / "mp"), 2, _mem_shard, config
    ) as server:
        key = _keys_of_shard(0, 2, 1)[0]
        with _connect(server.worker_addresses[0]) as sock:
            reader = FrameReader(sock)
            sock.sendall(_get(1, key))
            refused = reader.read()
            assert refused.opcode == protocol.RESP_ERROR
            assert "not authenticated" in str(protocol.decode_error(refused.payload))
            protocol.send_message(sock, Message(
                protocol.OP_AUTH, 2, protocol.encode_auth("impostor")
            ))
            assert reader.read().opcode == protocol.RESP_ERROR
            sock.sendall(_get(3, key))
            assert reader.read().opcode == protocol.RESP_ERROR
            protocol.send_message(sock, Message(
                protocol.OP_AUTH, 4, protocol.encode_auth("good-client")
            ))
            assert reader.read().opcode == protocol.RESP_OK
            sock.sendall(_get(5, key))
            assert reader.read().opcode == protocol.RESP_NOT_FOUND
        # KVClient carries its server_id to the workers it discovers.
        with KVClient(*server.address, server_id="good-client") as client:
            client.put(key, b"v")
            assert client.get(key) == b"v"
            counters = client.stats()["server"]
        # The refused raw GET, the served one, and the client's put and get.
        assert (counters["service.get"], counters["service.put"]) == (3 + 1, 1)
        assert counters["service.auth_rejections"] == 1
        assert counters["service.errors"] == 3
        # front-end + 2 workers for the client, 1 raw = 4 accepted AUTHs.
        assert counters["service.auth_accepted"] == 4


def test_a_corrupt_frame_on_a_direct_connection_drops_only_that_connection(
    tmp_path
):
    with MultiProcessKVServer(str(tmp_path / "mp"), 1, _mem_shard) as server:
        with _connect(server.worker_addresses[0]) as bad, \
                _connect(server.worker_addresses[0]) as good:
            frame = _get(1, b"k")
            bad.sendall(frame[:-1] + bytes([frame[-1] ^ 0x01]))
            assert bad.recv(16) == b""  # dropped, not answered
            good.sendall(frame)
            assert FrameReader(good).read().opcode == protocol.RESP_NOT_FOUND


def test_a_malformed_auth_on_a_direct_connection_is_an_error_reply(tmp_path):
    """An AUTH whose payload does not parse must not take the worker down."""
    with MultiProcessKVServer(str(tmp_path / "mp"), 1, _mem_shard) as server:
        pids = server.worker_pids
        with _connect(server.worker_addresses[0]) as sock:
            reader = FrameReader(sock)
            protocol.send_message(sock, Message(protocol.OP_AUTH, 1, b"\x09ab"))
            assert reader.read().opcode == protocol.RESP_ERROR
            sock.sendall(_get(2, b"k"))
            assert reader.read().opcode == protocol.RESP_NOT_FOUND
        assert server.worker_pids == pids


def test_a_direct_client_that_never_reads_does_not_stall_its_shard(tmp_path):
    value = bytes(range(256)) * 256  # 64 KiB
    count = 128                      # 8 MiB of replies: more than the socket buffers hold
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        key = _keys_of_shard(0, 2, 1)[0]
        with KVClient(*server.address) as client:
            client.put(key, value)
            with _connect(server.worker_addresses[0]) as deaf:
                deaf.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
                deaf.sendall(b"".join(
                    _get(rid, key) for rid in range(1, count + 1)
                ))
                # Served behind the burst, by the same single thread: had a
                # send to `deaf` blocked, this would never come back.
                assert client.get(key) == value
                reader = FrameReader(deaf)
                for rid in range(1, count + 1):
                    reply = reader.read()
                    assert (reply.opcode, reply.request_id) == (
                        protocol.RESP_VALUE, rid
                    )
                    assert protocol.decode_value(reply.payload) == value


def test_a_pipelined_burst_on_a_direct_connection_is_answered_in_order(tmp_path):
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        keys = _keys_of_shard(1, 2, 300)
        with _connect(server.worker_addresses[1]) as sock:
            sock.sendall(b"".join(
                protocol.encode_frame(Message(
                    protocol.OP_PUT, rid, protocol.encode_put(key, b"v-" + key)
                ))
                for rid, key in enumerate(keys, start=1)
            ) + b"".join(
                _get(rid, key) for rid, key in enumerate(keys, start=1001)
            ))
            reader = FrameReader(sock)
            for rid in range(1, len(keys) + 1):
                reply = reader.read()
                assert (reply.opcode, reply.request_id) == (protocol.RESP_OK, rid)
            for rid, key in enumerate(keys, start=1001):
                reply = reader.read()
                assert reply.request_id == rid
                assert protocol.decode_value(reply.payload) == b"v-" + key


# -- routing -----------------------------------------------------------------


def test_client_and_workers_agree_on_every_keys_shard(tmp_path):
    rng = random.Random(17)
    keys = {rng.randbytes(rng.randrange(1, 40)) for __ in range(1000)}
    with MultiProcessKVServer(str(tmp_path / "mp"), 3, _mem_shard) as server:
        with KVClient(*server.address) as client:
            for key in keys:
                client.put(key, b"v")
            assert "service.put" not in server.stats.snapshot()  # no hop
            assert [k for k, __ in client.scan()] == sorted(keys)
        found = set()
        for shard, address in enumerate(server.worker_addresses):
            with KVClient(*address) as engine:  # one worker = one engine
                in_engine = [k for k, __ in engine.scan()]
            assert all(shard_for_key(k, 3) == shard for k in in_engine)
            found.update(in_engine)
        assert found == keys


def test_op_counts_add_up_across_the_shards(tmp_path):
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient(*server.address) as client:
            for i in range(7):
                client.put(b"key-%d" % i, b"v")
                assert client.get(b"key-%d" % i) == b"v"
            for i in range(11):
                assert client.get(b"key-%d" % (i % 7)) == b"v"
            assert len(client.scan()) == 7
            counters = client.stats()["server"]
    assert counters["service.get"] == 7 + 11
    assert counters["service.put"] == 7
    assert counters["service.scan"] == 2  # a scattered scan counts per part
    assert counters["service.topology"] == 1
    assert counters["service.stats"] == 1 + 2  # the front-end and each worker
    # 1 to the front-end + 1 to each worker.
    assert counters["service.connections"] == 3
    assert counters["service.direct_connections"] == 2
    assert counters["service.worker_generation.0"] == 1


# -- scans scatter in parallel, parts retry alone ----------------------------


def test_scan_parts_run_in_parallel(tmp_path):
    """Shard 0's scan waits for a byte that only shard 1's scan writes: a
    client that sent and read one part at a time would never finish."""
    gate_r, gate_w = os.pipe()  # inherited by both forked workers

    def gated_shard(index, path):
        db = _mem_shard(index, path)

        class _GatedDB:
            def scan(self, *args, **kwargs):
                if index == 0:
                    os.read(gate_r, 1)
                else:
                    os.write(gate_w, b"g")
                return db.scan(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(db, name)

        return _GatedDB()

    try:
        with MultiProcessKVServer(str(tmp_path / "mp"), 2, gated_shard) as server:
            with KVClient(*server.address, timeout_s=WAIT_S, max_retries=0) as client:
                for i in range(10):
                    client.put(b"key-%d" % i, b"v")
                assert len(client.scan()) == 10
            with KVClient.over(
                server.worker_addresses, timeout_s=WAIT_S, max_retries=0
            ) as client:
                assert len(client.scan(limit=4)) == 4
    finally:
        os.close(gate_r)
        os.close(gate_w)


def _break_pooled_connections(endpoint: Endpoint) -> None:
    for conn in endpoint._pool:
        conn.sock.close()  # the next send on it raises


def test_a_scan_part_that_loses_its_socket_is_retried_alone(tmp_path):
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient(*server.address) as client:
            for i in range(10):
                client.put(b"key-%d" % i, b"v")
            _break_pooled_connections(client.workers()[1])
            assert len(client.scan()) == 10
            assert client.retries == 1  # counted on the client the user holds
        with KVClient.over(server.worker_addresses) as client:
            assert len(client.scan()) == 10  # pools are warm now
            _break_pooled_connections(client.workers()[0])
            assert len(client.scan()) == 10
            assert client.retries == 1


def test_a_stats_part_that_loses_its_socket_is_retried_alone(tmp_path):
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_shard) as server:
        with KVClient.over(server.worker_addresses) as client:
            for i in range(10):
                client.put(b"key-%d" % i, b"v")
            assert client.stats()["committed_sequence"] == 10  # pools warm
            _break_pooled_connections(client.workers()[1])
            stats = client.stats()
            assert client.retries == 1  # counted once, on the one client
    assert stats["committed_sequence"] == 10
    assert set(stats["endpoints"]) == {"0", "1"}


class AuthScriptedServer(ScriptedServer):
    """Answers the first ``garbled`` AUTHs with a frame whose CRC is wrong,
    refuses ``mallory``, and serves every SCAN one pair."""

    def __init__(self, garbled: int = 0):
        self.garbled = garbled
        super().__init__()

    def reply(self, msg: Message) -> bytes:
        rid = msg.request_id
        if msg.opcode == protocol.OP_SCAN:
            return protocol.encode_frame(Message(
                protocol.RESP_PAIRS, rid, protocol.encode_pairs([(b"k", b"v")])
            ))
        assert msg.opcode == protocol.OP_AUTH
        if protocol.decode_auth(msg.payload) == "mallory":
            return protocol.encode_frame(protocol.error_reply(
                rid, AuthorizationError("server 'mallory' is not authorized")
            ))
        raw = protocol.encode_frame(Message(protocol.RESP_OK, rid))
        if self.garbled:
            self.garbled -= 1
            raw = raw[:-1] + bytes([raw[-1] ^ 0x01])
        return raw


def test_a_garbled_auth_under_a_scan_part_is_retried_alone():
    server = AuthScriptedServer(garbled=1)
    try:
        with KVClient.over(
            [server.address], server_id="good-client", timeout_s=WAIT_S
        ) as client:
            assert client.scan() == [(b"k", b"v")]
            assert client.retries == 1
    finally:
        server.close()
    assert server.opcodes == [
        protocol.OP_AUTH, protocol.OP_AUTH, protocol.OP_SCAN
    ]


@pytest.mark.parametrize("server_id, error", [
    ("good-client", protocol.ProtocolError),  # the AUTH reply is garbled
    ("mallory", AuthorizationError),          # the AUTH is refused
])
def test_a_connection_whose_auth_fails_is_closed(monkeypatch, server_id, error):
    opened = []
    connect = socket.create_connection

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(socket, "create_connection", recording_connect)
    server = AuthScriptedServer(garbled=1)
    try:
        endpoint = Endpoint(*server.address, timeout_s=WAIT_S, server_id=server_id)
        with pytest.raises(error):
            endpoint.acquire()
    finally:
        server.close()
    (sock,) = opened
    assert sock.fileno() == -1  # closed at once, not left to the collector


# -- a worker dies under a direct request ------------------------------------


def test_killing_a_worker_under_a_direct_request_costs_one_retry(tmp_path):
    gate_r, gate_w = os.pipe()
    entered_r, entered_w = os.pipe()

    def gated_shard(index, path):
        db = _durable_shard(index, path)

        class _GatedDB:
            def get(self, key, opts=None):
                if key == b"slow":
                    os.write(entered_w, b"e")  # "the request is in flight"
                    os.read(gate_r, 1)
                return db.get(key, opts)

            def __getattr__(self, name):
                return getattr(db, name)

        return _GatedDB()

    config = ServiceConfig(drain_timeout_s=2.0)
    got = []
    try:
        with MultiProcessKVServer(
            str(tmp_path / "mp"), 2, gated_shard, config
        ) as server:
            addresses = server.worker_addresses
            victim = server.worker_pids[shard_for_key(b"slow", 2)]
            with KVClient(
                *server.address, timeout_s=WAIT_S, backoff_base_s=0.001,
                backoff_max_s=0.01,
            ) as client:
                client.put(b"slow", b"worth the wait")
                caller = threading.Thread(
                    target=lambda: got.append(client.get(b"slow"))
                )
                caller.start()
                assert os.read(entered_r, 1) == b"e"
                os.kill(victim, signal.SIGKILL)
                os.write(gate_w, b"g" * 8)  # the respawned worker's get passes
                caller.join(WAIT_S)
                assert not caller.is_alive()
                assert got == [b"worth the wait"]
                assert client.retries >= 1 and client.busy_retries == 0
                counters = client.stats()["server"]
            assert server.worker_addresses == addresses
            assert victim not in server.worker_pids
        assert counters["service.worker_crashes"] == 1
        assert counters["service.worker_respawns"] == 1
    finally:
        for fd in (gate_r, gate_w, entered_r, entered_w):
            os.close(fd)
