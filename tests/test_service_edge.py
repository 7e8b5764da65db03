"""One request edge, one sealed replication wire, one bounded log.

Four defects that each lived in one copy of a forked piece of the serving
tier, as tests.  In the style of ``test_service_wire_budget.py``: nothing
here sleeps; every "it happened" is a reply read off a socket or a
library wait with a deadline.

The three TCP edges are ``KVServer`` ("threaded"), a shard worker's own
port ("worker": a ``_ShardServer`` run on a thread, so the test holds its
engine and its KDS) and ``MultiProcessKVServer``'s front-end ("front-end").
"""

import contextlib
import hashlib
import socket
import threading

import pytest

from repro.crypto.cipher import spec_for
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError, CorruptionError, ServiceError
from repro.keys.client import KeyClient
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.envelope import FILE_KIND_WAL, MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filecrypto import NULL_CRYPTO, PlaintextCryptoProvider, make_file_crypto
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.service.client import KVClient
from repro.service.protocol import FrameSplitter, Message
from repro.service.replica import Replica, ReplicationSource, stream_to_replica
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer, _ShardServer
from repro.shield import ShieldOptions, open_shield_db
from repro.util.stats import StatsRegistry

WAIT_S = 20.0


# -- the three edges ---------------------------------------------------------


def _engine(kds, path):
    """An engine whose KeyClient talks to ``kds`` (None: a plaintext one)."""
    options = Options(env=MemEnv())
    if kds is None:
        return DB(path, options)
    return open_shield_db(path, ShieldOptions(kds=kds, server_id="engine"), options)


@contextlib.contextmanager
def _threaded_edge(kds, config):
    db = _engine(kds, "/edge-threaded")
    try:
        with KVServer(db, config) as server:
            yield server.address
    finally:
        db.close()


@contextlib.contextmanager
def _worker_edge(kds, config):
    db = _engine(kds, "/edge-worker")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.setblocking(False)
    frontend_end, worker_end = socket.socketpair()
    shard = _ShardServer(db, worker_end, listener, config)
    thread = threading.Thread(target=shard.serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        frontend_end.close()  # EOF on the pipe: the worker loop ends
        thread.join(WAIT_S)
        listener.close()
        worker_end.close()
        db.close()
    assert not thread.is_alive()


@contextlib.contextmanager
def _frontend_edge(kds, config, tmp_path):
    def make_shard(index, path):
        return _engine(kds, path)

    with MultiProcessKVServer(str(tmp_path / "mp"), 1, make_shard, config) as server:
        yield server.address


def _edges(kds, config, tmp_path, names=("threaded", "worker", "front-end")):
    makers = {
        "threaded": lambda: _threaded_edge(kds, config),
        "worker": lambda: _worker_edge(kds, config),
        "front-end": lambda: _frontend_edge(kds, config, tmp_path),
    }
    return [(name, makers[name]) for name in names]


def _recv_exact(sock, nbytes: int) -> bytes:
    data = b""
    while len(data) < nbytes:
        chunk = sock.recv(nbytes - len(data))
        assert chunk, "the edge closed the connection instead of answering"
        data += chunk
    return data


def _session(address, requests) -> list[tuple[str, object]]:
    """Send ``(opcode, payload)`` requests on one connection; returns each
    reply as ``(frame hex, decoded answer)``."""
    out = []
    with socket.create_connection(address, timeout=WAIT_S) as sock:
        for rid, (opcode, payload) in enumerate(requests, start=1):
            protocol.send_message(sock, Message(opcode, rid, payload))
            head = _recv_exact(sock, 4)
            body = _recv_exact(sock, int.from_bytes(head, "little"))
            reply = protocol.decode_frame_body(body)
            assert reply.request_id == rid
            if reply.opcode == protocol.RESP_ERROR:
                exc = protocol.decode_error(reply.payload)
                answer = (type(exc).__name__, str(exc))
            else:
                answer = (reply.opcode, reply.payload)
            out.append(((head + body).hex(), answer))
    return out


def _auth(server_id: str):
    return protocol.OP_AUTH, protocol.encode_auth(server_id)


PUT = (protocol.OP_PUT, protocol.encode_put(b"k", b"v"))
GET = (protocol.OP_GET, protocol.encode_key(b"k"))
REFUSED = ("AuthorizationError", "server 'mallory' is not authorized by the KDS")
UNAUTHENTICATED = (
    "AuthorizationError", "connection is not authenticated; send AUTH first"
)


def _authorizing_kds():
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("engine")
    kds.authorize_server("good-client")
    return kds


# -- (a) who is let in is one rule on every edge -----------------------------


def test_an_edge_with_no_kds_of_its_own_asks_the_engines(tmp_path):
    """``require_auth`` with no ``config.kds``: the engine's KDS decides
    where there is an engine, and an edge with neither refuses to start
    rather than letting everyone in."""
    kds = _authorizing_kds()
    config = ServiceConfig(require_auth=True)
    requests = [_auth("mallory"), PUT, GET, _auth("good-client"), PUT, GET]
    for name, edge in _edges(kds, config, tmp_path, ("threaded", "worker")):
        with edge() as address:
            answers = [answer for __, answer in _session(address, requests)]
        assert answers[:3] == [REFUSED, UNAUTHENTICATED, UNAUTHENTICATED], name
        assert [opcode for opcode, __ in answers[3:]] == [
            protocol.RESP_OK, protocol.RESP_OK, protocol.RESP_VALUE
        ], name
    server = MultiProcessKVServer(
        str(tmp_path / "mp"), 1, lambda index, path: _engine(kds, path), config
    )
    try:
        with pytest.raises(ServiceError, match="require_auth"):
            server.start()
    finally:
        server.stop()


def test_every_edge_refuses_an_unauthorized_id_with_the_same_bytes(tmp_path):
    """``config.kds`` set (and the engines on another KDS that would let
    mallory in): it overrides, identically, on all three edges."""
    lax = InMemoryKDS()
    config = ServiceConfig(require_auth=True, kds=_authorizing_kds())
    requests = [_auth("mallory"), GET, _auth("good-client"), GET]
    sessions = {}
    for name, edge in _edges(lax, config, tmp_path):
        with edge() as address:
            sessions[name] = _session(address, requests)
    reference = sessions["threaded"]
    assert [answer for __, answer in reference] == [
        REFUSED, UNAUTHENTICATED,
        (protocol.RESP_OK, b""), (protocol.RESP_NOT_FOUND, b""),
    ]
    for name, session in sessions.items():
        assert session == reference, name


# -- (b) a malformed AUTH is an error reply, on every edge -------------------


def test_a_truncated_auth_gets_the_same_error_frame_and_kills_no_thread(
    tmp_path, monkeypatch
):
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    requests = [
        (protocol.OP_AUTH, b"\x09ab"),  # announces 9 bytes, carries 2
        (protocol.OP_PING, b""),        # the connection is still usable
    ]
    sessions = {}
    for name, edge in _edges(None, ServiceConfig(), tmp_path):
        with edge() as address:
            sessions[name] = _session(address, requests)
    reference = sessions["threaded"]
    assert reference[0][1][0] == "CorruptionError"
    assert reference[1][1] == (protocol.RESP_OK, b"")
    for name, session in sessions.items():
        assert session == reference, name
    assert died == []


# -- (c) the replication wire is sealed under the scheme in force ------------


class TamperingProxy:
    """A byte-level TCP proxy in front of a primary.  Replica-to-primary
    bytes pass verbatim; primary-to-replica bytes are split into frames,
    and while ``armed`` the next frame of ``opcode`` has one payload bit
    flipped at ``position`` and its CRC recomputed (the frame CRC is not a
    MAC) -- once."""

    opcode = protocol.RESP_REPL_FRAME

    def position(self, payload: bytes) -> int | None:
        """The byte of ``payload`` to flip, None to let it pass: inside the
        last value byte of a one-put record with a 1-byte key and a 6-byte
        value (12 header + type + 1+1 key + 1+6 value)."""
        return 21

    def __init__(self, upstream):
        self.upstream = upstream
        self.armed = False
        self.tampered = 0
        self.connections = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self._socks: list[socket.socket] = []
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    @property
    def address(self):
        return self.listener.getsockname()

    def _accept(self):
        while True:
            try:
                down, __ = self.listener.accept()
            except OSError:
                return
            up = socket.create_connection(self.upstream, timeout=WAIT_S)
            up.settimeout(None)
            self.connections += 1
            self._socks += [down, up]
            for pump, args in ((self._verbatim, (down, up)),
                               (self._framed, (up, down))):
                thread = threading.Thread(target=pump, args=args, daemon=True)
                self._threads.append(thread)
                thread.start()

    @staticmethod
    def _hang_up(*socks):
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _verbatim(self, source, sink):
        try:
            while data := source.recv(65536):
                sink.sendall(data)
        except OSError:
            pass
        self._hang_up(source, sink)

    def _framed(self, source, sink):
        splitter = FrameSplitter()
        try:
            while data := source.recv(65536):
                splitter.feed(data)
                for frame in splitter.frames():
                    raw = frame.raw
                    if (
                        self.armed and frame.opcode == self.opcode
                        and (position := self.position(frame.payload())) is not None
                    ):
                        self.armed = False
                        payload = bytearray(frame.payload())
                        payload[position] ^= 0x01
                        raw = protocol.encode_frame(Message(
                            frame.opcode, frame.request_id, bytes(payload)
                        ))
                        self.tampered += 1
                    sink.sendall(raw)
        except OSError:
            pass
        self._hang_up(source, sink)

    def close(self):
        self._hang_up(self.listener, *self._socks)
        self.listener.close()
        for thread in self._threads:
            thread.join(WAIT_S)
        for sock in self._socks:
            sock.close()
        assert not any(thread.is_alive() for thread in self._threads)


@pytest.mark.parametrize("scheme", ["shake-etm", "chacha20-poly1305", "aes-256-gcm"])
def test_a_tampered_replication_frame_is_never_a_value(scheme):
    kds = InMemoryKDS()
    db = open_shield_db(
        "/edge-repl", ShieldOptions(kds=kds, server_id="primary", scheme=scheme),
        Options(env=MemEnv()),
    )
    try:
        with KVServer(db) as server:
            proxy = TamperingProxy(server.address)
            replica = Replica(
                *proxy.address, server_id="replica-1",
                key_client=KeyClient(kds, "replica-1"),
                reconnect_backoff_s=0.001,
            )
            try:
                replica.start()
                assert replica.wait_connected(WAIT_S)
                proxy.armed = True
                db.put(b"k", b"100000")
                # Caught up means: the flipped frame was refused, the stream
                # dropped, and a resubscription from ``last_applied`` (through
                # the proxy, which has stopped tampering) delivered the record.
                assert replica.wait_until_caught_up(db.committed_sequence(), WAIT_S)
                assert proxy.tampered == 1
                assert replica.get(b"k") == b"100000"  # never b"100001"
                assert isinstance(replica.last_error, AuthenticationError)
                assert proxy.connections == 2 and replica.subscriptions == 2
                db.put(b"k2", b"after")
                assert replica.wait_until_caught_up(db.committed_sequence(), WAIT_S)
                assert replica.scan() == db.scan()
            finally:
                replica.stop()
                proxy.close()
    finally:
        db.close()


class _SSTTamperingProxy(TamperingProxy):
    """Flips a bit inside the sealed part of the first SST a checkpoint
    ships, a quarter of the way in: a data block, not the index."""

    opcode = protocol.RESP_REPL_FILE

    def position(self, payload: bytes) -> int | None:
        name, data = protocol.decode_repl_file(payload)
        if not name.endswith(".sst"):
            return None
        header = decode_envelope(data[:MAX_ENVELOPE_SIZE]).header_size
        return len(payload) - len(data) + header + (len(data) - header) // 4


@pytest.mark.parametrize("scheme, error", [
    ("shake-etm", AuthenticationError), ("shake-ctr", CorruptionError),
])
def test_an_sst_tampered_in_transit_is_never_a_value(scheme, error):
    """Shipped files are not sealed again: each is what storage holds, and
    the replica's reads check it as any reader does -- a failed tag and a
    quarantine under AEAD, a typed block-checksum error under a stream
    cipher."""
    kds = InMemoryKDS()
    db = open_shield_db(
        "/edge-sst", ShieldOptions(kds=kds, server_id="primary", scheme=scheme),
        Options(env=MemEnv()),
    )
    values = {b"k%d" % i: b"%d" % i * 900 for i in range(8)}
    try:
        for key, value in values.items():
            db.put(key, value)
        db.flush()
        with KVServer(db) as server:
            proxy = _SSTTamperingProxy(server.address)
            proxy.armed = True
            replica = Replica(*proxy.address, server_id="replica-1",
                              key_client=KeyClient(kds, "replica-1"))
            try:
                replica.start()
                assert replica.wait_until_caught_up(db.committed_sequence(), WAIT_S)
                assert proxy.tampered == 1 and replica.checkpoints_received == 1
                answers = []
                for key, value in values.items():
                    try:
                        answers.append(replica.get(key) == value)
                    except error as exc:
                        assert type(exc) is error
                        answers.append(error)
                assert error in answers and False not in answers
                with pytest.raises(error):
                    replica.scan()
                quarantined = replica.quarantined_files()
                assert bool(quarantined) == (error is AuthenticationError)
            finally:
                replica.close()
                proxy.close()
    finally:
        db.close()


class _PinnedStreamProvider(PlaintextCryptoProvider):
    """Seals the replication stream under one known DEK and nonce (the
    engine's own files stay plaintext), and records what is retired."""

    def __init__(self, scheme="shake-ctr"):
        self.spec = spec_for(scheme)
        self.retired = []

    def for_new_file(self, file_kind, path):
        if "/replication-" not in path:
            return NULL_CRYPTO
        return make_file_crypto(
            self.spec.scheme_id, "dek-pinned", bytes(range(self.spec.key_size)),
            b"\x07" * self.spec.nonce_size,
        )

    def on_file_deleted(self, dek_id, path):
        if dek_id:
            self.retired.append((dek_id, path))


class _CollectingConn:
    """The server-side connection object ``stream_to_replica`` writes to.
    Runs ``after_checkpoint`` once the checkpoint's position is sent (so
    what it commits arrives by the tail) and hangs up at ``expect`` log
    frames."""

    def __init__(self, expect: int, after_checkpoint):
        self.sent: list[Message] = []
        self.alive = True
        self._expect = expect
        self._after_checkpoint = after_checkpoint

    def frames(self) -> list[Message]:
        return [msg for msg in self.sent if msg.opcode == protocol.RESP_REPL_FRAME]

    def send(self, msg: Message) -> None:
        self.sent.append(msg)
        if msg.opcode == protocol.RESP_REPL_POSITION:
            self._after_checkpoint()
        self.alive = len(self.frames()) < self._expect

    def close(self) -> None:
        self.alive = False


def _stream_six_records(db) -> _CollectingConn:
    """Subscribe from sequence 0 after three writes the source never saw:
    a checkpoint, then six records by the tail, then the replica hangs up."""

    def tail_records():
        for i in range(5):
            db.put(b"key-%d" % i, b"value-%d" % i * (i + 1))
        db.delete(b"key-2")

    for i in range(3):
        db.put(b"before-%d" % i, b"the source attached")
    source = ReplicationSource(db)
    conn = _CollectingConn(6, tail_records)
    try:
        stream_to_replica(
            conn, Message(protocol.OP_REPL_SUBSCRIBE, 1,
                          protocol.encode_repl_subscribe("replica-1", 0)),
            db, source, stopping=threading.Event(), stats=StatsRegistry(),
        )
    finally:
        source.close()
    return conn


def test_shake_ctr_stream_bytes_are_what_they_were():
    """For a fixed DEK, nonce and record script the stream's bytes are
    pinned -- each frame a unit at its running offset, and the checkpoint
    ahead of them (files as storage holds them) takes no stream offset --
    and the stream's DEK is retired, as a deleted file's, when it ends."""
    provider = _PinnedStreamProvider()
    db = DB("/edge-pinned", Options(env=MemEnv(), crypto_provider=provider))
    try:
        conn = _stream_six_records(db)
        assert provider.retired == [("dek-pinned", "/edge-pinned/replication-replica-1")]
    finally:
        db.close()
    # accept; one SST, the MANIFEST and CURRENT, the position; six records.
    assert [msg.opcode for msg in conn.sent] == [
        protocol.RESP_REPL_ACCEPT,
    ] + [protocol.RESP_REPL_FILE] * 3 + [
        protocol.RESP_REPL_POSITION,
    ] + [protocol.RESP_REPL_FRAME] * 6
    envelope, primary_seq = protocol.decode_repl_accept(conn.sent[0].payload)
    assert (envelope.file_kind, envelope.dek_id, envelope.nonce, primary_seq) == (
        FILE_KIND_WAL, "dek-pinned", b"\x07" * 16, 3
    )
    assert protocol.decode_sequence(conn.sent[4].payload) == 3
    assert conn.sent[0].payload.hex() == PINNED_ACCEPT
    stream = b"".join(protocol.encode_frame(msg) for msg in conn.frames())
    assert hashlib.sha256(stream).hexdigest() == PINNED_TAIL_SHA256


#: The accept: the stream's envelope (log, shake-ctr, its DEK-ID and nonce),
#: then the primary's committed sequence.
PINNED_ACCEPT = (
    "4c534d460201040a64656b2d70696e6e65641007070707070707070707070707070707"
    "f8f392040300000000000000"
)
#: The six records tailed from stream offset 0 (a subscriber whose resume
#: point the log covered), each sealed as a unit at its running offset.
PINNED_TAIL_SHA256 = (
    "55850ca1ce39eeec9a8ff4b9067453cad81f4aae2e88dfe6baa70286447f0df3"
)


#: Recorded before the stream became a log of the engine's provider: an
#: AEAD already sealed every frame as a unit at its running offset.
PINNED_AEAD_TAIL_SHA256 = {
    "shake-etm": "368175bf76c09928c338f4dc2d7388b3b4b44cfdbf28f22cea61bdbd1f42736f",
    "aes-256-gcm": "623054bb22675d006a62f4e03065f25077e940102a2d357fa04327e38696858f",
}


@pytest.mark.parametrize("scheme", sorted(PINNED_AEAD_TAIL_SHA256))
def test_aead_stream_bytes_are_what_they_were(scheme):
    provider = _PinnedStreamProvider(scheme)
    db = DB("/edge-pinned", Options(env=MemEnv(), crypto_provider=provider))
    try:
        conn = _stream_six_records(db)
    finally:
        db.close()
    stream = b"".join(protocol.encode_frame(msg) for msg in conn.frames())
    assert hashlib.sha256(stream).hexdigest() == PINNED_AEAD_TAIL_SHA256[scheme]


def test_a_shake_ctr_stream_frame_squeezes_exactly_its_own_length(squeezed):
    """Like a log v2 unit: a frame of n bytes costs one ``digest(n)``,
    wherever in the stream it sits (the engine's files are plaintext here,
    so every squeeze is the stream's)."""
    db = DB("/edge-squeeze", Options(env=MemEnv(), crypto_provider=_PinnedStreamProvider()))
    try:
        conn = _stream_six_records(db)
    finally:
        db.close()
    assert squeezed == [len(msg.payload) for msg in conn.frames()]


def test_a_primary_that_leaves_its_wals_plaintext_streams_in_the_clear():
    """The stream is one more WAL of the engine: it follows ``encrypt_wal``
    (the shipped SST and MANIFEST stay sealed under theirs)."""
    db = open_shield_db(
        "/edge-plain-wal", ShieldOptions(kds=InMemoryKDS(), encrypt_wal=False),
        Options(env=MemEnv()),
    )
    try:
        conn = _stream_six_records(db)
    finally:
        db.close()
    envelope, __ = protocol.decode_repl_accept(conn.sent[0].payload)
    assert (envelope.file_kind, envelope.scheme_id, envelope.dek_id) == (
        FILE_KIND_WAL, 0, ""
    )
    shipped = [protocol.decode_repl_file(msg.payload) for msg in conn.sent[1:3]]
    assert all(decode_envelope(data).encrypted for __, data in shipped)
    # Each frame is the committed record as it is: sequences 4 to 9.
    assert [WriteBatch.deserialize(msg.payload)[0] for msg in conn.frames()] == [
        4, 5, 6, 7, 8, 9
    ]


# -- (d) the retained log is bounded by what the engine holds unflushed ------


def test_the_position_gauge_covers_a_frame_before_the_replica_can_apply_it():
    """OP_STATS derives a replica's lag from this gauge: once a frame is on
    the wire, the replica may apply it and its owner read the server's
    stats, so the gauge must already be at the frame's sequence."""
    stats = StatsRegistry()
    gauge = stats.gauge("service.repl_position.replica-1")
    seen = []

    class _GaugeReadingConn(_CollectingConn):
        def send(self, msg):
            if msg.opcode == protocol.RESP_REPL_FRAME:
                seen.append(gauge.value)
            super().send(msg)

    db = DB("/edge-gauge", Options(env=MemEnv()))
    db.put(b"before", b"the source attached")  # so a checkpoint comes first
    source = ReplicationSource(db)
    conn = _GaugeReadingConn(3, lambda: [
        db.put(b"key-%d" % i, b"value") for i in range(3)
    ])
    try:
        stream_to_replica(
            conn, Message(protocol.OP_REPL_SUBSCRIBE, 1,
                          protocol.encode_repl_subscribe("replica-1", 0)),
            db, source, stopping=threading.Event(), stats=stats,
        )
    finally:
        source.close()
        db.close()
    assert seen == [2, 3, 4]


def test_a_server_nobody_subscribes_to_retains_a_bounded_log():
    write_buffer_size = 64 * 1024
    db = DB("/edge-bounded", Options(env=MemEnv(), write_buffer_size=write_buffer_size))
    try:
        with KVServer(db) as server:
            with KVClient(*server.address) as client:
                for start in range(0, 20_000, 500):
                    pipe = client.pipeline(max_inflight=64)
                    for i in range(start, start + 500):
                        pipe.put(b"key-%03d" % (i % 500), b"value-%05d" % i)
                    pipe.execute()
            assert db.committed_sequence() == 20_000
            retained = server._source.records_after(0)
            assert sum(len(payload) for __, __last, payload in retained) <= (
                3 * write_buffer_size  # the active memtable + two immutable
            )
            assert retained[-1][1] == 20_000  # oldest dropped, newest kept
            # A late subscriber's resume point is older than the log: it is
            # caught up by checkpoint, then tails.
            with Replica(*server.address, server_id="late") as replica:
                assert replica.wait_until_caught_up(db.committed_sequence(), WAIT_S)
                assert replica.checkpoints_received == 1
                assert replica.scan() == db.scan()
                db.put(b"live", b"tail")
                assert replica.wait_until_caught_up(db.committed_sequence(), WAIT_S)
                assert replica.get(b"live") == b"tail"
    finally:
        db.close()
