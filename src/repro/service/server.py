"""The serving core, the one executor loop that runs it, and KVServer
(DESIGN.md §6).

**The core** is everything between "a decoded request" and "a reply
message", written once for every deployment shape: :func:`admit` (the
request edge: OP_AUTH and the ``require_auth`` gate, asking the one KDS
:func:`auth_kds` names), :func:`answer` (span, :func:`execute`, every error
on the wire, the error counters), :func:`execute` (the opcode switch, with
degraded-mode write failures mapped to the retriable ``RESP_DEGRADED``),
:func:`stats_sections` (an engine's OP_STATS sections) and
:func:`health_loop` (health polling and auto-recovery).  It serves any
engine with the ``DB`` surface -- a ``DB``, a ``ShardedDB``, one shard
inside a forked worker.

**The executor loop** (:class:`ServingLoop`) is the one caller of
:func:`answer`, one request at a time: a request that blocks (a slow KDS
fetch, a write stall) holds every connection of its loop.  A shard worker
process runs it (:mod:`repro.service.workers`); :class:`KVServer` runs it
on a thread.

Authorization reuses the KDS machinery: with ``require_auth`` a
connection must present a server ID the KDS authorizes before any other
operation, the same policy gate replicas pass through (Section 5.4's
"the KDS, not the metadata, enforces authorization").
"""

from __future__ import annotations

import contextlib
import socket
import threading
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
from repro.service.peers import Peer, PeerLoop
from repro.service.protocol import Frame, Message
from repro.service.replica import ReplicationSource, stream_to_replica
from repro.util.coding import decode_length_prefixed
from repro.util.stats import StatsRegistry

#: ``listen()`` backlog of every server's accept sockets.
ACCEPT_BACKLOG = 64

#: ``server.<op>`` span names, resolved once per opcode.
_SPAN_NAMES = protocol.OpNames("server")


@dataclass
class ServiceConfig:
    """Tunables for one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                    # 0 = pick an ephemeral port
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
    an OP_AUTH (an edge hands in its undecoded ``Frame`` otherwise).
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
           span_name: str) -> bytes:
    """One admitted request to its reply frame: the span (the wire trace
    header, if any, parents it under the client's -- one trace across
    processes), :func:`execute`, every error on the wire, and the
    ``service.errors`` / ``service.degraded_rejections`` counts.

    ``request`` is a verified ``Frame``, read in place (or a ``Message``:
    anything with ``opcode``, ``request_id``, ``trace`` and ``body()``)."""
    with TRACER.span(span_name, parent=TRACER.extract(request.trace)) as span:
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
# The one executor loop
# ---------------------------------------------------------------------------


def listen(host: str, port: int) -> socket.socket:
    """A non-blocking TCP listener on ``(host, port)`` (port 0: ephemeral)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(ACCEPT_BACKLOG)
    listener.setblocking(False)
    return listener


def count_op(stats: StatsRegistry, counters: dict, opcode: int) -> None:
    """``service.<op>`` += 1 at a TCP edge; ``counters`` keeps each opcode's
    Counter after its first use (no name formatting or registry probe per
    request, and OP_STATS gains no zero rows)."""
    counter = counters.get(opcode)
    if counter is None:
        op_name = protocol.OPCODE_NAMES.get(opcode, f"op{opcode}")
        counter = counters[opcode] = stats.counter(f"service.{op_name}")
    counter.add(1)


class ServingLoop:
    """The executor loop: one engine, one thread, one
    :class:`~repro.service.peers.PeerLoop` over its listener and the
    connections accepted from it, plus the health loop and any replication
    streams on side threads.  It serves until the other end of its
    *lifeline* (``pipe``, a socketpair half nobody writes to) closes.

    Every connection is a TCP edge: frame CRCs are verified, ``admit``
    decides who is served, and ops, connections, errors and auth decisions
    are counted -- in this loop's own registry, which reaches clients
    through OP_STATS.  Sends never block: a client that stops reading grows
    its own out-buffer, not the engine's latency.  The loop never answers
    ``RESP_BUSY``: requests wait in their socket's buffer.

    ``OP_REPL_SUBSCRIBE`` takes the socket out of the loop and gives it,
    blocking, to a streamer thread
    (:func:`~repro.service.replica.stream_to_replica`).  The retained log
    (:class:`~repro.service.replica.ReplicationSource`) attaches at the
    first subscription: a loop nobody subscribes to pays no commit
    listener and retains nothing.
    """

    def __init__(self, db, pipe: socket.socket, listener: socket.socket,
                 config: ServiceConfig):
        self.db = db
        self.config = config
        self.stats = StatsRegistry()
        self._auth_kds = auth_kds(config, db)
        self._pipe = pipe
        self._listener = listener
        self._io = PeerLoop()
        self._running = True
        self._direct: set[Peer] = set()
        self._op_counters: dict = {}  # opcode -> its service.<op> Counter
        self._direct_open = self.stats.gauge("service.direct_connections")
        # Set when the loop ends: it ends the health loop and every stream.
        self._stopping = threading.Event()
        self._health = threading.Thread(
            target=health_loop, args=(db, self._stopping, config, self.stats),
            name="shard-health", daemon=True,
        )
        #: Each replication stream's thread and the socket it writes to.
        self._streams: dict[threading.Thread, socket.socket] = {}
        self._source: ReplicationSource | None = None  # at the first subscribe
        pipe.setblocking(False)
        # Nothing is ever written to the lifeline: readable means EOF.
        self._io.add_listener(pipe, self._on_lifeline_closed)
        self._io.add_listener(listener, self._on_accept)

    def serve(self) -> None:
        """Serve until the lifeline's other end closes (graceful shutdown)."""
        self._health.start()
        try:
            while self._running and self._io.poll(None):
                pass
        finally:
            self._stopping.set()
            for peer in list(self._direct):
                self._close_direct(peer)  # a prompt EOF, not a wait on close()
            if self._source is not None:
                self._source.close()
            for thread, sock in list(self._streams.items()):
                with contextlib.suppress(OSError):
                    sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked send
                thread.join()
            self._health.join()
            self._io.close_sock(self._pipe)
            self._io.close()

    def _transport_sections(self, sections: dict) -> dict:
        """OP_STATS: this loop's ``server`` counters on top of the engine's
        sections, and ``replication`` -- per-replica stream position, and
        lag derived from the position gauges against the committed
        sequence."""
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

    def _answer(self, frame: Frame) -> bytes:
        """The reply frame to a verified request frame, answered from the
        frame itself: its key and value are read in place."""
        return answer(
            self.db, frame, self._transport_sections, self.stats,
            _SPAN_NAMES[frame.opcode],
        )

    def _on_lifeline_closed(self) -> None:
        self._running = False

    # -- connections -------------------------------------------------------

    def _on_accept(self) -> None:
        for peer in self._io.accept(
            self._listener, self._on_direct, self._close_direct
        ):
            self._direct.add(peer)
            self.stats.counter("service.connections").add(1)
            self._direct_open.set(len(self._direct))

    def _close_direct(self, peer: Peer) -> None:
        peer.alive = False
        self._io.close_sock(peer.sock)
        self._direct.discard(peer)
        self._direct_open.set(len(self._direct))

    def _on_direct(self, peer: Peer, frame: Frame) -> None:
        frame.verify()  # every socket is a TCP edge: the trust boundary
        opcode = frame.opcode
        count_op(self.stats, self._op_counters, opcode)
        if opcode == protocol.OP_REPL_SUBSCRIBE:
            self._hand_off(peer, frame.message())
            return
        refusal = admit(
            self.config, self._auth_kds, self.stats, peer,
            frame.message() if opcode == protocol.OP_AUTH else frame,
        )
        if refusal is None:
            raw = self._answer(frame)
        else:
            raw = protocol.encode_frame(refusal)
        if not self._io.send(peer, raw):
            self._close_direct(peer)

    # -- replication -------------------------------------------------------

    def _hand_off(self, peer: Peer, request: Message) -> None:
        """A subscription: the connection leaves the loop, blocking, and
        becomes a one-way stream on a thread of its own.  It is exempt from
        the require_auth gate: it carries its own server ID, which
        :meth:`_stream` checks against the KDS -- the same policy
        decision OP_AUTH would make."""
        peer.alive = False  # the loop reads nothing more from it
        self._direct.discard(peer)
        self._direct_open.set(len(self._direct))
        self._io.selector.unregister(peer.sock)
        peer.sock.setblocking(True)
        # A ShardedDB fronts several engines, each its own sequence space:
        # there is no one commit hook to stream from.
        if self._source is None and hasattr(self.db, "add_commit_listener"):
            self._source = ReplicationSource(self.db)
        thread = threading.Thread(
            target=self._stream, args=(peer.sock, request, bytes(peer.outbuf)),
            name="repl-stream", daemon=True,
        )
        self._streams[thread] = peer.sock
        thread.start()

    def _stream(self, sock: socket.socket, request: Message,
                unsent: bytes) -> None:
        """A subscription's thread: the replies the loop had not sent yet,
        the checks, then the stream until the replica goes away or the loop
        ends.  A refusal is an error reply (``service.repl_refusals``)."""
        try:
            sock.sendall(unsent)
            server_id = protocol.decode_repl_subscribe(request.payload)[0]
            if self._source is None:
                raise InvalidArgumentError(
                    "this server's engine does not support WAL shipping"
                )
            if not is_authorized(self._auth_kds, server_id):
                self.stats.counter("service.auth_rejections").add(1)
                raise AuthorizationError(
                    f"replica {server_id!r} is not authorized by the KDS"
                )
            self.stats.counter("service.replica_subscriptions").add(1)
            # A ReproError from here on is a stream whose setup failed
            # (typically the stream-DEK provisioning hit a KDS outage): the
            # replica backs off and resubscribes from its resume position.
            stream_to_replica(
                sock, request, self.db, self._source, self._stopping, self.stats
            )
        except ReproError as exc:
            self.stats.counter("service.repl_refusals").add(1)
            with contextlib.suppress(OSError):
                protocol.send_message(
                    sock, protocol.error_reply(request.request_id, exc)
                )
        except OSError:
            pass  # the replica went away; it resubscribes from its position
        finally:
            with contextlib.suppress(OSError):
                sock.close()
            self._streams.pop(threading.current_thread(), None)


# ---------------------------------------------------------------------------
# KVServer: the loop over one engine, on a thread
# ---------------------------------------------------------------------------


class KVServer:
    """Serve the wire protocol over TCP in front of an open engine: one
    :class:`ServingLoop` on a thread of its own, over its own listener."""

    def __init__(self, db, config: ServiceConfig | None = None):
        self.db = db
        self.config = config or ServiceConfig()
        self._listener: socket.socket | None = None
        self._loop: ServingLoop | None = None
        self._thread: threading.Thread | None = None
        self._pipe: socket.socket | None = None  # closed: the loop ends

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServiceError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def stats(self) -> StatsRegistry:
        """The loop's counters (what OP_STATS reports as ``server``)."""
        if self._loop is None:
            raise ServiceError("server is not started")
        return self._loop.stats

    def start(self) -> "KVServer":
        if self._loop is not None:
            return self
        self._listener = listen(self.config.host, self.config.port)
        self._pipe, loop_end = socket.socketpair()
        self._loop = ServingLoop(self.db, loop_end, self._listener, self.config)
        self._thread = threading.Thread(
            target=self._loop.serve, name="kv-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: EOF on the loop's lifeline ends it (its
        connections closed, its streams and health loop joined); a loop
        wedged inside a handler is given up on after ``drain_timeout_s``."""
        if self._pipe is None:
            return
        self._pipe.close()
        self._pipe = None
        self._thread.join(self.config.drain_timeout_s)
        self._listener.close()

    def __enter__(self) -> "KVServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
