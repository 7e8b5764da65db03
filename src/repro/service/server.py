"""The serving core, and the threaded socket server built on it.

**The core** is everything between "a decoded request" and "a reply
message", written once for every deployment shape: :func:`admit` (the
request edge: OP_AUTH and the ``require_auth`` gate, asking the one KDS
:func:`auth_kds` names), :func:`answer` (span, :func:`execute`, every error
on the wire, the error counters), :func:`execute` (the opcode switch, with
degraded-mode write failures mapped to the retriable ``RESP_DEGRADED``),
:func:`stats_sections` (an engine's OP_STATS sections) and
:func:`health_loop` (health polling and auto-recovery).  It serves any
engine with the ``DB`` surface -- a ``DB``, a ``ShardedDB``, one shard
inside a forked worker -- and never looks at which transport called it.

**Two transports** carry requests to the core.  This module's
:class:`KVServer` is threads and a bounded queue over an in-process
engine (so it can stream replication from the engine's commit hook);
:mod:`repro.service.workers` is a selectors front-end forwarding frames
byte-for-byte to forked shard workers.  KVServer's architecture::

    accept thread ── one reader thread per connection
                         │  parses frames, admit()s them (AUTH inline),
                         │  hands replication subscriptions to a streamer,
                         ▼
                 bounded request queue ── N worker threads call answer()
                                          and write responses

Backpressure is explicit: when the queue is full the *reader* thread
answers ``RESP_BUSY`` immediately instead of buffering unboundedly --
clients are expected to back off and retry (``KVClient`` does).  Because
responses carry request IDs, a connection may pipeline many requests;
workers execute them concurrently, so cross-request ordering within one
connection is not guaranteed (use WRITE_BATCH for atomic multi-key
writes, as with the embedded engine).

Authorization reuses the KDS machinery: with ``require_auth`` a
connection must present a server ID the KDS authorizes before any other
operation, the same policy gate replicas pass through (Section 5.4's
"the KDS, not the metadata, enforces authorization").
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass

from repro.crypto.cipher import CRYPTO_STATS
from repro.dist.sharding import HEALTH_RANK
from repro.errors import (
    AuthorizationError,
    InvalidArgumentError,
    IOError_,
    KeyManagementError,
    ReproError,
    ServiceError,
)
from repro.lsm.db import HEALTH_DEGRADED
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.protocol import Message
from repro.service.replica import ReplicationSource, stream_to_replica
from repro.util.coding import decode_length_prefixed
from repro.util.stats import StatsRegistry

#: ``listen()`` backlog of both servers' accept sockets.
ACCEPT_BACKLOG = 64

#: ``server.<op>`` span names, resolved once per opcode.
_SPAN_NAMES = protocol.OpNames("server")


@dataclass
class ServiceConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = pick an ephemeral port
    num_workers: int = 4
    max_queue_depth: int = 64        # bounded request queue (backpressure)
    require_auth: bool = False       # demand OP_AUTH before serving
    kds: object | None = None        # overrides the provider's KDS for auth
    drain_timeout_s: float = 5.0     # graceful-shutdown drain budget
    health_check_interval_s: float = 0.2  # health-monitor poll cadence
    auto_recover: bool = True        # clear transient bg errors automatically


# ---------------------------------------------------------------------------
# The serving core
# ---------------------------------------------------------------------------


def _key_client_of(db):
    """The engine's KeyClient, or None (plaintext engines, ``ShardedDB``)."""
    return getattr(getattr(db, "provider", None), "key_client", None)


def auth_kds(config: ServiceConfig, db):
    """The KDS that decides who is let in, on every edge: ``config.kds``,
    else the one the engine's own KeyClient talks to (None: neither)."""
    if config.kds is not None:
        return config.kds
    return getattr(_key_client_of(db), "kds", None)


def is_authorized(kds, server_id: str) -> bool:
    check = getattr(kds, "is_authorized", None)
    if check is None:
        return True  # no authorization machinery configured
    return bool(check(server_id))


def authenticate(kds, stats: StatsRegistry, conn, payload: bytes) -> None:
    """OP_AUTH: record the server ID on ``conn`` if the KDS authorizes it,
    raise :class:`AuthorizationError` otherwise."""
    server_id = protocol.decode_auth(payload)
    if not is_authorized(kds, server_id):
        stats.counter("service.auth_rejections").add(1)
        raise AuthorizationError(
            f"server {server_id!r} is not authorized by the KDS"
        )
    conn.server_id = server_id
    stats.counter("service.auth_accepted").add(1)


def require_authenticated(config: ServiceConfig, conn) -> None:
    if config.require_auth and conn.server_id is None:
        raise AuthorizationError(
            "connection is not authenticated; send AUTH first"
        )


def admit(config: ServiceConfig, kds, stats: StatsRegistry, conn,
          msg) -> Message | None:
    """The request edge's one decision, for every TCP edge: the reply when
    the request ends here -- OP_AUTH's verdict from ``kds``
    (:func:`auth_kds`), or the ``require_auth`` refusal -- and None when it
    may be served.  Whatever decoding or authorizing raises is an error
    reply, never a dead thread.  ``msg`` needs ``payload`` only when it is
    an OP_AUTH (the front-end hands in its undecoded ``Frame`` otherwise).
    """
    try:
        if msg.opcode == protocol.OP_AUTH:
            authenticate(kds, stats, conn, msg.payload)
            return Message(protocol.RESP_OK, msg.request_id)
        require_authenticated(config, conn)
    except Exception as exc:  # noqa: BLE001 - every error goes on the wire
        stats.counter("service.errors").add(1)
        return protocol.error_reply(msg.request_id, exc)
    return None


def _apply_write(db, fn) -> tuple[int, bytes]:
    """Run a write; map degraded-mode failures to a retriable response.

    A write that fails while the engine reports *degraded* (transient
    background error, KDS outage) answers ``RESP_DEGRADED`` with the
    health verdict instead of a terminal error or a dropped connection
    -- the client backs off and retries, and succeeds once the health
    loop has recovered the engine.  Failures outside degraded mode
    propagate unchanged.
    """
    try:
        fn()
    except (IOError_, KeyManagementError):
        health = db.health()
        if health.get("state") == HEALTH_DEGRADED:
            return protocol.RESP_DEGRADED, protocol.encode_health(health)
        raise
    return protocol.RESP_OK, protocol.encode_sequence(db.committed_sequence())


def execute(db, opcode: int, buf, offset: int = 0,
            transport_sections=None) -> tuple[int, bytes]:
    """Execute one request against an engine: ``(reply opcode, reply
    payload)``; engine errors propagate.

    The request's payload is ``buf[offset:]`` -- a ``Message``'s payload
    from 0, or a ``Frame``'s raw bytes from its payload offset, so a
    GET/PUT/DELETE reads its key and value in place.
    ``transport_sections(sections)`` returns what the calling transport adds
    to the engine's OP_STATS sections: at least its ``server`` counters.
    """
    if opcode == protocol.OP_GET:
        value = db.get(decode_length_prefixed(buf, offset)[0])
        if value is None:
            return protocol.RESP_NOT_FOUND, b""
        return protocol.RESP_VALUE, protocol.encode_value(value)
    if opcode == protocol.OP_PUT:
        key, offset = decode_length_prefixed(buf, offset)
        value = decode_length_prefixed(buf, offset)[0]
        return _apply_write(db, lambda: db.put(key, value))
    if opcode == protocol.OP_DELETE:
        key = decode_length_prefixed(buf, offset)[0]
        return _apply_write(db, lambda: db.delete(key))
    payload = buf[offset:]
    if opcode == protocol.OP_WRITE_BATCH:
        __, batch = WriteBatch.deserialize(payload)
        return _apply_write(db, lambda: db.write(batch))
    if opcode == protocol.OP_SCAN:
        start, end, limit = protocol.decode_scan(payload)
        pairs = db.scan(start, end, limit)
        return protocol.RESP_PAIRS, protocol.encode_pairs(pairs)
    if opcode == protocol.OP_STATS:
        sections = stats_sections(db)
        if transport_sections is not None:
            sections.update(transport_sections(sections))
        return protocol.RESP_STATS, protocol.encode_stats(sections)
    if opcode == protocol.OP_FLUSH:
        db.flush()
        return protocol.RESP_OK, b""
    if opcode == protocol.OP_COMPACT:
        db.compact_range()
        return protocol.RESP_OK, b""
    if opcode == protocol.OP_PING:
        return protocol.RESP_OK, b""
    if opcode == protocol.OP_HEALTH:
        return protocol.RESP_STATS, protocol.encode_health(db.health())
    if opcode == protocol.OP_TOPOLOGY:
        # Whoever executes requests against an engine is a leaf: there is no
        # endpoint behind it to route to.  (The multi-process front-end
        # answers this opcode itself, with its workers' endpoints.)
        return protocol.RESP_OK, protocol.encode_topology(())
    raise InvalidArgumentError(f"unknown opcode {opcode}")


def answer(db, request, transport_sections, stats: StatsRegistry,
           span_name: str, attributes: dict | None = None) -> bytes:
    """One admitted request to its reply frame, for every transport: the
    span (the wire trace header, if any, parents it under the client's --
    one trace across processes), :func:`execute`, every error on the wire,
    and the ``service.errors`` / ``service.degraded_rejections`` counts.

    ``request`` is a parsed ``Message`` or a verified ``Frame`` (read in
    place: a shard worker builds no ``Message`` for it)."""
    with TRACER.span(
        span_name, parent=TRACER.extract(request.trace), attributes=attributes
    ) as span:
        try:
            buf, offset = request.body()
            opcode, payload = execute(
                db, request.opcode, buf, offset, transport_sections
            )
        except Exception as exc:  # noqa: BLE001 - every error goes on the wire
            stats.counter("service.errors").add(1)
            span.set_attribute("error", type(exc).__name__)
            opcode, payload = protocol.RESP_ERROR, protocol.encode_error(exc)
    if opcode == protocol.RESP_DEGRADED:
        stats.counter("service.degraded_rejections").add(1)
    return protocol.pack_frame(opcode, request.request_id, payload)


def stats_sections(db) -> dict:
    """One engine's OP_STATS sections.

    ``engine`` (counters, block cache, tree shape), ``crypto`` (context
    inits, bytes, init-vs-bulk seconds), ``integrity`` (tag verification
    totals plus the engine's ``integrity.*`` gauges: quarantines,
    freshness checks, trusted-counter value), ``keyclient`` (KDS
    round-trips and cache hits), ``obs`` (derived signals), ``health``
    and ``committed_sequence``.  Each transport adds its own ``server``
    section on top.
    """
    engine = db.stats_snapshot()
    crypto = CRYPTO_STATS.snapshot()
    integrity = {
        "integrity.auth_ok_total": crypto.get("crypto.auth_ok", 0),
        "integrity.auth_fail_total": crypto.get("crypto.auth_fail", 0),
    }
    for name, value in engine.items():
        if name.startswith("integrity."):
            integrity[name] = value
    out = {
        "engine": engine,
        "crypto": crypto,
        "integrity": integrity,
        "committed_sequence": db.committed_sequence(),
        "health": db.health(),
        "obs": db.obs_dict(),
    }
    key_client = _key_client_of(db)
    if key_client is not None:
        out["keyclient"] = key_client.stats.snapshot()
    return out


def health_loop(db, stop: threading.Event, config: ServiceConfig,
                stats: StatsRegistry) -> None:
    """Poll engine health until ``stop``; auto-recover from transient
    degradation.

    ``try_recover`` only clears *transient* background errors and
    reschedules the interrupted jobs -- if the cause persists they fail
    again and the engine re-degrades, so this loop converges instead of
    masking a real fault.  Deferred DEK retires are drained once the KDS
    answers again.  A tick that raises is counted and the loop carries
    on: one bad probe must not end recovery for the life of the process.
    """
    key_client = _key_client_of(db)
    while not stop.wait(config.health_check_interval_s):
        try:
            health = db.health()
            recovered = (
                config.auto_recover
                and health.get("state") == HEALTH_DEGRADED
                and health.get("reason") == "background-error"
                and db.try_recover()
            )
            stats.gauge("service.health").set(
                HEALTH_RANK.get(health.get("state"), 2)
            )
            if recovered:
                stats.counter("service.recoveries").add(1)
            if (
                key_client is not None
                and key_client.pending_retires
                and key_client.available()
            ):
                key_client.drain_pending_retires()
        except Exception:  # noqa: BLE001 - the health loop must never die
            stats.counter("service.health_check_errors").add(1)


# ---------------------------------------------------------------------------
# The threaded transport
# ---------------------------------------------------------------------------


class _Connection:
    """Book-keeping for one accepted socket."""

    __slots__ = ("sock", "addr", "send_lock", "server_id", "alive")

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.send_lock = threading.Lock()
        self.server_id: str | None = None
        self.alive = True

    def send(self, msg: Message) -> None:
        self.send_frame(protocol.encode_frame(msg))

    def send_frame(self, raw: bytes) -> None:
        with self.send_lock:
            self.sock.sendall(raw)

    def close(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class KVServer:
    """Serve the wire protocol over TCP in front of an open engine."""

    def __init__(self, db, config: ServiceConfig | None = None):
        self.db = db
        self.config = config or ServiceConfig()
        self.stats = StatsRegistry()
        self._queue_wait = self.stats.histogram("service.queue_wait_s")
        #: opcode -> its service.<op> counter and service.latency.<op>
        #: histogram, bound on the opcode's first request.
        self._op_metrics: dict = {}
        # Unbounded, so stop()'s sentinels always fit; the reader threads
        # enforce ``max_queue_depth`` before they put.
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._conn_threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        # Replication needs the engine's commit hook; a ShardedDB fronts
        # several engines and is served read/write only (no subscription).
        self._source: ReplicationSource | None = (
            ReplicationSource(db) if hasattr(db, "add_commit_listener") else None
        )
        self._auth_kds = auth_kds(self.config, db)
        self._health_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServiceError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "KVServer":
        if self._started:
            return self
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(ACCEPT_BACKLOG)
        for index in range(self.config.num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"kv-worker-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="kv-accept", daemon=True
        )
        self._accept_thread.start()
        self._health_thread = threading.Thread(
            target=health_loop, name="kv-health", daemon=True,
            args=(self.db, self._stopping, self.config, self.stats),
        )
        self._health_thread.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the queue, close."""
        if not self._started or self._stopping.is_set():
            return
        self._stopping.set()
        try:
            # close() alone leaves a thread blocked in accept() asleep (Linux).
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._accept_thread.join()
        # Drain: one sentinel per worker, behind every queued request; a
        # worker wedged inside a handler is given up on when the budget ends.
        deadline = time.monotonic() + self.config.drain_timeout_s
        for __ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        if self._source is not None:
            self._source.close()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()
        self._health_thread.join()
        for thread in self._conn_threads:
            thread.join()

    def __enter__(self) -> "KVServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- accept / read path ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed during shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, addr)
            with self._conn_lock:
                self._connections.add(conn)
            self.stats.counter("service.connections").add(1)
            thread = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"kv-conn-{addr[1]}", daemon=True,
            )
            thread.start()
            # Prune finished readers so a long-lived server doesn't hold a
            # Thread object per connection it ever accepted.
            self._conn_threads = [
                t for t in self._conn_threads if t.is_alive()
            ]
            self._conn_threads.append(thread)

    def _reader_loop(self, conn: _Connection) -> None:
        reader = protocol.FrameReader(conn.sock)
        try:
            while conn.alive and not self._stopping.is_set():
                try:
                    msg = reader.read()
                except (protocol.ProtocolError, OSError):
                    return
                if msg is None:
                    return
                if msg.opcode == protocol.OP_REPL_SUBSCRIBE:
                    # Exempt from the require_auth gate: the subscription
                    # carries its own server ID, which _handle_subscribe
                    # checks against the KDS -- the same policy decision
                    # OP_AUTH would make.  The connection becomes a one-way
                    # replication stream; this thread turns into its
                    # streamer.
                    self._handle_subscribe(conn, msg)
                    return
                reply = admit(
                    self.config, self._auth_kds, self.stats, conn, msg
                )
                if reply is None:
                    if self._queue.qsize() < self.config.max_queue_depth:
                        self._queue.put((conn, msg, time.perf_counter()))
                        continue
                    self.stats.counter("service.busy_rejections").add(1)
                    reply = Message(protocol.RESP_BUSY, msg.request_id)
                try:
                    conn.send(reply)
                except OSError:
                    return
        finally:
            conn.close()
            with self._conn_lock:
                self._connections.discard(conn)

    # -- replication -------------------------------------------------------

    def _handle_subscribe(self, conn: _Connection, msg: Message) -> None:
        server_id = protocol.decode_repl_subscribe(msg.payload)[0]
        if self._source is None:
            conn.send(protocol.error_reply(msg.request_id, InvalidArgumentError(
                "this server's engine does not support WAL shipping"
            )))
            return
        if not is_authorized(self._auth_kds, server_id):
            self.stats.counter("service.auth_rejections").add(1)
            conn.send(protocol.error_reply(msg.request_id, AuthorizationError(
                f"replica {server_id!r} is not authorized by the KDS"
            )))
            return
        self.stats.counter("service.replica_subscriptions").add(1)
        try:
            stream_to_replica(
                conn=conn,
                request=msg,
                db=self.db,
                source=self._source,
                stopping=self._stopping,
                stats=self.stats,
            )
        except ReproError as exc:
            # Stream setup failed (typically the stream-DEK provisioning
            # hit a KDS outage): refuse this subscription cleanly instead
            # of killing the reader thread.  The replica backs off and
            # resubscribes from its preserved resume position.
            self.stats.counter("service.repl_refusals").add(1)
            try:
                conn.send(protocol.error_reply(msg.request_id, exc))
            except OSError:
                pass

    # -- execute path ------------------------------------------------------

    def _worker_loop(self) -> None:
        while (item := self._queue.get()) is not None:  # None: stop()
            conn, msg, enqueued_at = item
            started = time.perf_counter()
            queue_wait = started - enqueued_at
            self._queue_wait.record(queue_wait)
            reply = answer(
                self.db, msg, self._transport_sections, self.stats,
                _SPAN_NAMES[msg.opcode], {"queue_wait_s": queue_wait},
            )
            metrics = self._op_metrics.get(msg.opcode)
            if metrics is None:
                op_name = protocol.OPCODE_NAMES.get(msg.opcode, f"op{msg.opcode}")
                metrics = self._op_metrics[msg.opcode] = (
                    self.stats.counter(f"service.{op_name}"),
                    self.stats.histogram(f"service.latency.{op_name}"),
                )
            metrics[0].add(1)
            metrics[1].record(time.perf_counter() - started)
            if conn.alive:
                try:
                    conn.send_frame(reply)
                except OSError:
                    conn.close()

    def _transport_sections(self, sections: dict) -> dict:
        """OP_STATS: this transport's own sections on top of the engine's --
        ``server`` (queue/latency/backpressure counters) and
        ``replication`` (per-replica stream position, and lag derived
        from the position gauges against the committed sequence)."""
        server = self.stats.snapshot()
        prefix = "service.repl_position."
        return {
            "server": server,
            "replication": {
                name[len(prefix):]: {
                    "position": value,
                    "lag": max(0, sections["committed_sequence"] - value),
                }
                for name, value in server.items()
                if name.startswith(prefix)
            },
        }
