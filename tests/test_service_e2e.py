"""End-to-end acceptance: a SHIELD-encrypted server under concurrent
clients while a replica is killed and reconnects mid-stream, with every
byte of the replication link captured by a recording TCP proxy to prove
no plaintext WAL data crosses the wire.
"""

import socket
import threading

from repro.env.mem import MemEnv
from repro.keys.client import KeyClient
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.service.replica import Replica
from repro.service.server import KVServer, ServiceConfig
from repro.service.client import KVClient
from repro.shield import ShieldOptions, open_shield_db

SENTINEL = b"PLAINTEXT-WAL-SENTINEL"


class RecordingProxy:
    """A TCP tap: forwards both directions, keeps a copy of every byte.

    The replica dials the proxy instead of the primary, so the captured
    stream is exactly what an eavesdropper on the replication link sees.
    Accepts any number of sequential connections (reconnects included).
    """

    def __init__(self, upstream: tuple):
        self.upstream = upstream
        self.captured = bytearray()
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._threads: list[threading.Thread] = []
        self._stopping = False
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    @property
    def address(self) -> tuple:
        return self._listener.getsockname()[:2]

    def _accept_loop(self):
        while not self._stopping:
            try:
                client_side, __ = self._listener.accept()
            except OSError:
                return
            try:
                server_side = socket.create_connection(self.upstream, timeout=5)
            except OSError:
                client_side.close()
                continue
            for source, sink in ((client_side, server_side),
                                 (server_side, client_side)):
                pump = threading.Thread(
                    target=self._pump, args=(source, sink), daemon=True
                )
                pump.start()
                self._threads.append(pump)

    def _pump(self, source: socket.socket, sink: socket.socket):
        try:
            while True:
                data = source.recv(65536)
                if not data:
                    break
                with self._lock:
                    self.captured.extend(data)
                sink.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def bytes_captured(self) -> bytes:
        with self._lock:
            return bytes(self.captured)

    def close(self):
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        for thread in self._threads:
            thread.join(timeout=1.0)


def test_encrypted_server_with_replica_crash_and_eavesdropper():
    kds = InMemoryKDS()
    db = open_shield_db(
        "/e2e-primary",
        ShieldOptions(kds=kds, server_id="primary", wal_buffer_size=512),
        Options(env=MemEnv(), write_buffer_size=64 * 1024),
    )
    server = KVServer(db, ServiceConfig()).start()
    proxy = RecordingProxy(server.address)
    replica = Replica(
        *proxy.address, server_id="replica-1",
        key_client=KeyClient(kds, "replica-1"),
        reconnect_backoff_s=0.01,
    )
    replica.start()
    assert replica.wait_connected(timeout=5.0)

    host, port = server.address
    crashed = threading.Event()
    failures: list = []

    def writer(tag: int):
        try:
            with KVClient(host, port) as client:
                for i in range(80):
                    key = b"w%d-%03d" % (tag, i)
                    client.put(key, SENTINEL + b"-%d-%03d" % (tag, i))
                    if tag == 0 and i == 40:
                        replica.simulate_crash()  # kill mid-stream
                        crashed.set()
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    def reader():
        try:
            with KVClient(host, port) as client:
                for i in range(120):
                    client.get(b"w0-%03d" % (i % 80))
                    if i % 20 == 0:
                        client.scan(b"w", b"x", limit=10)
        except Exception as exc:  # noqa: BLE001
            failures.append(exc)

    threads = [threading.Thread(target=writer, args=(tag,)) for tag in range(3)]
    threads.append(threading.Thread(target=reader))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert crashed.is_set()

    # The replica reconnected and converged on the full write set.
    final_seq = db.committed_sequence()
    assert replica.wait_until_caught_up(final_seq, timeout=20.0)
    assert replica.subscriptions >= 2
    for tag in range(3):
        for i in range(80):
            key = b"w%d-%03d" % (tag, i)
            assert replica.get(key) == SENTINEL + b"-%d-%03d" % (tag, i)

    # A reader through the normal client sees the same data.
    with KVClient(host, port) as client:
        assert client.get(b"w2-079") == SENTINEL + b"-2-079"

    replica.stop()
    proxy.close()
    server.stop()
    db.close()

    # The eavesdropper saw real traffic -- and zero plaintext WAL bytes.
    wire = proxy.bytes_captured()
    assert len(wire) > 240 * len(SENTINEL)  # the stream really went through
    assert SENTINEL not in wire
    assert b"w0-040" not in wire  # keys are encrypted too


def test_plaintext_engine_control_shows_the_tap_works():
    """Control experiment: an unencrypted engine DOES leak the sentinel,
    proving the proxy would have caught a leak in the encrypted run."""
    from repro.lsm.db import DB

    db = DB("/e2e-plain", Options(env=MemEnv(), write_buffer_size=64 * 1024))
    server = KVServer(db, ServiceConfig()).start()
    proxy = RecordingProxy(server.address)
    replica = Replica(*proxy.address, server_id="replica-1")
    replica.start()
    assert replica.wait_connected(timeout=5.0)
    db.put(b"leak-key", SENTINEL)
    assert replica.wait_until_caught_up(db.committed_sequence())
    assert replica.get(b"leak-key") == SENTINEL
    replica.stop()
    proxy.close()
    server.stop()
    db.close()
    assert SENTINEL in proxy.bytes_captured()
