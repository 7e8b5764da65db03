"""Shard-per-core serving: a multi-process KVServer.

The threaded :class:`~repro.service.server.KVServer` executes every byte
of framing, crypto, and LSM work under one GIL.  This module is the
second transport over the same serving core (``server.admit``, ``answer``,
``stats_sections``, ``health_loop``), split
along the seams SHIELD's per-file DEK model already provides (each LSM
component encrypts independently, so each shard is self-contained):

- N **worker processes**, each owning exactly one shard -- its own engine,
  WAL, block cache, DEK cache, and KeyClient -- and each a first-class
  **endpoint**: it answers the normal wire protocol with
  ``answer(db, frame, ...)`` -- from the verified frame itself, no
  ``Message`` built -- on an inherited ``socketpair`` from the front-end
  *and* on TCP connections to its own listening port.  It is
  single-threaded on the request path (shared-nothing, shard-per-core; one
  small selector loop over all its sockets), with the core's health loop
  on a small side thread.
- one **event-loop front-end** (``selectors``) that accepts TCP
  connections, splits frames, routes single-key operations by
  :func:`~repro.dist.sharding.shard_for_key`, scatter-gathers the
  cross-shard operations (SCAN, STATS, FLUSH, COMPACT, HEALTH), splits
  WRITE_BATCH per shard, and never touches an engine itself.

**Two routes.**  The front-end is the full-service path: any client, any
opcode, one address.  ``OP_TOPOLOGY`` tells a client the workers'
endpoints (in shard order), and :class:`~repro.service.client.KVClient`
then sends GET/PUT/DELETE straight to the owning worker and scatters SCAN
itself: one round trip and two process wake-ups per op instead of two and
four.  Everything else stays on the front-end.  A worker's listener is
created by the parent *once*, before the first fork (``config.host``,
ephemeral port), and inherited by every incarnation of that worker, so
the port is stable for the life of the server: the topology never changes
and there is nothing to re-discover.  A direct connection is a TCP edge
with the front-end's rules (frame CRC, the same ``admit`` against the same
``auth_kds``, the same counters, in the worker's ``server`` section), and because
one thread serves all of a worker's sockets, per-shard ordering holds
across routes.

Backpressure is per worker queue: when a worker has
``config.max_queue_depth`` forwarded requests in flight, new requests
routed to it answer ``RESP_BUSY`` immediately (the client backs off and
retries); direct requests queue in the connection's socket buffer.  A
worker that dies mid-request is detected by EOF on its pipe; every
forwarded request it still owed is answered with the *retriable*
``RESP_BUSY`` -- never a terminal error -- and the worker is respawned on
the same shard path and the same listener, so a crash costs the client
one backoff, not an error.  A direct request in flight sees its
connection reset -- a transient socket error under the client's retry
loop -- and the reconnect queues in the (still open) listener's backlog
until the respawned worker accepts it.

``OP_STATS`` merges the per-worker sections with
:func:`~repro.dist.sharding.merge_stats`, the same merge ``ShardedDB``
and ``ShardedKVClient`` use, and adds the front-end's own ``server``
counters to the workers' (``service.get`` = forwarded + direct;
``service.forwarded`` / ``service.direct`` / ``service.direct_connections``
say which route traffic takes), so the layout matches the threaded server
and ``repro-stats`` and the chaos harness keep working unchanged.

Replication subscriptions are refused here: WAL shipping needs the
engine's commit hook, which lives in the worker processes.  Point
replicas at per-shard servers instead (DESIGN.md §10).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from collections import deque

from repro.dist.sharding import (
    merge_health,
    merge_scan_results,
    merge_stats,
    shard_for_key,
    split_batch,
    sum_numeric,
)
from repro.errors import InvalidArgumentError, ServiceError
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.peers import Peer, PeerLoop
from repro.service.protocol import Frame, FrameSplitter, Message
from repro.service.server import (
    ACCEPT_BACKLOG,
    ServiceConfig,
    admit,
    answer,
    auth_kds,
    health_loop,
)
from repro.util.stats import StatsRegistry

#: Opcodes the front-end fans out to every worker (or every involved one).
_GATHER_OPS = frozenset({
    protocol.OP_SCAN, protocol.OP_STATS, protocol.OP_FLUSH,
    protocol.OP_COMPACT, protocol.OP_HEALTH, protocol.OP_WRITE_BATCH,
})

#: ``worker.<op>`` span names, resolved once per opcode.
_SPAN_NAMES = protocol.OpNames("worker")


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------


class _ShardServer:
    """A shard worker's serving loop: one engine, one thread, three kinds of
    socket -- the pipe to the front-end, the shard's listener, and the
    direct connections accepted from it.

    A direct connection is a TCP edge like the front-end's: frame CRCs are
    verified, ``admit`` decides who is served, and ops, connections, errors
    and auth decisions are counted -- in this process's own registry, which
    reaches clients through OP_STATS (the front-end sums the workers'
    ``server`` sections).  Sends never block: a direct client that stops
    reading grows its own out-buffer, not the shard's latency.
    """

    def __init__(self, db, pipe: socket.socket, listener: socket.socket,
                 config: ServiceConfig):
        self.db = db
        self.config = config
        self.stats = StatsRegistry()
        self._auth_kds = auth_kds(config, db)
        self._listener = listener
        self._io = PeerLoop()
        self._running = True
        self._direct: set[Peer] = set()
        self._op_counters: dict = {}  # opcode -> its service.<op> Counter
        self._direct_ops = self.stats.counter("service.direct")
        self._direct_open = self.stats.gauge("service.direct_connections")
        pipe.setblocking(False)
        self._io.add_peer(Peer(pipe), self._on_forwarded, self._on_pipe_closed)
        self._io.add_listener(listener, self._on_accept)

    def serve(self) -> None:
        """Serve until the front-end closes the pipe (graceful shutdown)."""
        stop = threading.Event()
        health_thread = threading.Thread(
            target=health_loop, args=(self.db, stop, self.config, self.stats),
            name="shard-health", daemon=True,
        )
        health_thread.start()
        try:
            while self._running and self._io.poll(None):
                pass
        finally:
            stop.set()
            health_thread.join()
            for peer in list(self._direct):
                self._close_direct(peer)  # a prompt EOF, not a wait on close()
            self._io.close()

    def _transport_sections(self, sections: dict) -> dict:
        # What the front-end sums across workers.  The health loop's gauge
        # stays here: it is one engine's health rank, and the merged
        # ``health`` section carries the worst-of verdict.
        server = self.stats.snapshot()
        server.pop("service.health", None)
        return {"server": server}

    def _answer(self, frame: Frame) -> bytes:
        """The reply frame to a verified request frame, answered from the
        frame itself: its key and value are read in place."""
        return answer(
            self.db, frame, self._transport_sections, self.stats,
            _SPAN_NAMES[frame.opcode],
        )

    # -- the front-end's pipe ----------------------------------------------

    def _on_forwarded(self, pipe: Peer, frame: Frame) -> None:
        """A request the front-end routed here: it was counted and
        authenticated at the front-end's TCP edge."""
        frame.verify()
        if not self._io.send(pipe, self._answer(frame)):
            self._on_pipe_closed(pipe)

    def _on_pipe_closed(self, pipe: Peer) -> None:
        pipe.alive = False
        self._running = False

    # -- direct connections ------------------------------------------------

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
        frame.verify()  # this socket is a TCP edge: the trust boundary
        opcode = frame.opcode
        _count_op(self.stats, self._op_counters, opcode)
        refusal = admit(
            self.config, self._auth_kds, self.stats, peer,
            frame.message() if opcode == protocol.OP_AUTH else frame,
        )
        if refusal is None:
            self._direct_ops.add(1)
            raw = self._answer(frame)
        else:
            raw = protocol.encode_frame(refusal)
        if not self._io.send(peer, raw):
            self._close_direct(peer)


def _count_op(stats: StatsRegistry, counters: dict, opcode: int) -> None:
    """``service.<op>`` += 1 at a TCP edge; ``counters`` keeps each opcode's
    Counter after its first use (no name formatting or registry probe per
    request, and OP_STATS gains no zero rows)."""
    counter = counters.get(opcode)
    if counter is None:
        op_name = protocol.OPCODE_NAMES.get(opcode, f"op{opcode}")
        counter = counters[opcode] = stats.counter(f"service.{op_name}")
    counter.add(1)


# ---------------------------------------------------------------------------
# Front-end bookkeeping
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side state for one shard worker process."""

    __slots__ = (
        "index", "path", "listener", "pid", "sock", "frames", "outbuf",
        "pending", "generation", "spawned_at", "strikes", "respawn_at",
    )

    def __init__(self, index: int, path: str):
        self.index = index
        self.path = path
        # The shard's direct endpoint: bound once by the parent, before the
        # first fork, and inherited by every incarnation of the worker, so
        # the port outlives a crash and connects queue while it respawns.
        self.listener: socket.socket | None = None
        self.pid: int | None = None
        self.sock: socket.socket | None = None
        self.frames = FrameSplitter()
        self.outbuf = bytearray()
        # The worker serves its pipe in arrival order on one thread, so its
        # responses come back in exactly the order requests were sent:
        # in-flight bookkeeping is a FIFO of
        # ("single", conn, rid) | ("gather", g, idx), matched by order.
        self.pending: deque[tuple] = deque()
        self.generation = 0
        self.spawned_at = 0.0
        self.strikes = 0              # consecutive crashes shortly after spawn
        self.respawn_at: float | None = None

    @property
    def alive(self) -> bool:
        return self.sock is not None


class _Gather:
    """One scatter-gathered request awaiting its per-worker parts."""

    __slots__ = ("conn", "request_id", "opcode", "remaining", "parts",
                 "done", "limit")

    def __init__(self, conn: Peer, request_id: int, opcode: int,
                 remaining: int, limit: int | None = None):
        self.conn = conn
        self.request_id = request_id
        self.opcode = opcode
        self.remaining = remaining
        self.parts: list[tuple[int, Message]] = []
        self.done = False
        self.limit = limit


# ---------------------------------------------------------------------------
# The multi-process server
# ---------------------------------------------------------------------------


class MultiProcessKVServer:
    """Shared-nothing front-end over N forked shard-worker processes.

    ``make_shard(shard_index, path) -> DB`` runs *inside the worker
    process* (the front-end never opens an engine), so each worker builds
    its own env, WAL, block cache, and KeyClient.  Shard ``i`` lives at
    ``{base_path}/shard-{i:03d}`` -- the same layout as ``ShardedDB`` --
    and a respawned worker reopens the same path, so on a durable env a
    crash loses nothing that was acked with a synced WAL.

    **Pass-through forwarding.**  Each worker serves its pipe in arrival
    order on one thread, so its responses arrive in exactly the order
    requests were sent.  The front-end exploits that: in-flight bookkeeping is a
    per-worker FIFO, and routed frames travel *verbatim* in both
    directions -- no request-id rewrite, no re-encode, no second CRC
    computation per hop.  The client's CRC is verified once at the TCP
    edge, and the worker's response CRC reaches the client intact, so
    the checksum stays end-to-end even through the proxy.
    """

    def __init__(self, base_path: str, num_workers: int, make_shard,
                 config: ServiceConfig | None = None):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.base_path = base_path
        self.num_workers = num_workers
        self._make_shard = make_shard
        self.config = config or ServiceConfig()
        self.stats = StatsRegistry()
        self._io: PeerLoop | None = None
        self._listener: socket.socket | None = None
        self._loop_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started = False
        self._workers = [
            _WorkerHandle(index, f"{base_path}/shard-{index:03d}")
            for index in range(num_workers)
        ]
        self._clients: set[Peer] = set()
        self._op_counters: dict = {}  # opcode -> its service.<op> Counter
        self._forwarded = self.stats.counter("service.forwarded")
        self._auth_kds = auth_kds(self.config, None)  # no engine this side
        self._awaiting_respawn: list[_WorkerHandle] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServiceError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def worker_addresses(self) -> list[tuple[str, int]]:
        """Each shard worker's own endpoint, in shard order: fixed from
        ``start()`` to ``stop()``, whatever happens to the processes."""
        if self._listener is None:
            raise ServiceError("server is not started")
        return [worker.listener.getsockname()[:2] for worker in self._workers]

    @property
    def worker_pids(self) -> list[int]:
        """Live worker pids, by shard index (tests and the chaos harness
        kill these directly)."""
        return [worker.pid for worker in self._workers]

    def start(self) -> "MultiProcessKVServer":
        if self._started:
            return self
        if self.config.require_auth and self._auth_kds is None:
            raise ServiceError(
                "require_auth needs ServiceConfig.kds: the front-end holds "
                "no engine whose KDS it could ask"
            )
        self._io = PeerLoop()
        self._listener = self._listen(self.config.port)
        # Every shard's listener exists before the first fork, so each
        # worker can close the others' and no port ever changes.
        for worker in self._workers:
            worker.listener = self._listen(0)
        for worker in self._workers:
            self._spawn_worker(worker)
        self._io.add_listener(self._listener, self._on_accept)
        self._loop_thread = threading.Thread(
            target=self._loop, name="kv-frontend", daemon=True
        )
        self._loop_thread.start()
        self._started = True
        return self

    def _listen(self, port: int) -> socket.socket:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, port))
        listener.listen(ACCEPT_BACKLOG)
        listener.setblocking(False)
        return listener

    def stop(self) -> None:
        """Graceful shutdown: close the listeners, drop clients, EOF the
        worker pipes (each worker closes its engine and exits), reap."""
        if not self._started or self._stopping.is_set():
            return
        self._stopping.set()
        self._loop_thread.join()  # its poll wakes every 50 ms
        if self._listener is not None:
            self._io.close_sock(self._listener)
        for conn in list(self._clients):
            self._close_client(conn)
        for worker in self._workers:
            worker.listener.close()
            if worker.sock is not None:
                self._io.close_sock(worker.sock)
                worker.sock = None
        deadline = time.monotonic() + self.config.drain_timeout_s
        for worker in self._workers:
            self._reap_worker(worker, deadline)
        self._io.close()

    def __enter__(self) -> "MultiProcessKVServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _reap_worker(self, worker: _WorkerHandle, deadline: float) -> None:
        if worker.pid is None:
            return
        while True:
            try:
                done_pid, __ = os.waitpid(worker.pid, os.WNOHANG)
            except (ChildProcessError, OSError):
                break
            if done_pid:
                break
            if time.monotonic() >= deadline:
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                    os.waitpid(worker.pid, 0)
                except (ChildProcessError, ProcessLookupError, OSError):
                    pass
                break
            time.sleep(0.01)
        worker.pid = None

    # -- worker processes --------------------------------------------------

    def _spawn_worker(self, worker: _WorkerHandle) -> None:
        """Fork one shard worker connected by a socketpair.

        The child inherits every parent-side descriptor; it closes them
        immediately (through the socket *objects*, so a later GC in the
        child cannot double-close a reused fd number) and then owns only
        its half of the pair, its shard's listener and whatever its engine
        opens.
        """
        parent_sock, child_sock = socket.socketpair()
        inherited = [parent_sock, self._listener]
        inherited.extend(conn.sock for conn in self._clients)
        for other in self._workers:
            if other is not worker:
                inherited.append(other.listener)
                if other.sock is not None:
                    inherited.append(other.sock)
        pid = os.fork()
        if pid == 0:
            # -- child: nothing below may return into the parent's world.
            status = 1
            try:
                for sock in inherited:
                    try:
                        sock.close()
                    except OSError:
                        pass
                self._io.close()
                TRACER.after_fork()
                db = self._make_shard(worker.index, worker.path)
                try:
                    _ShardServer(
                        db, child_sock, worker.listener, self.config
                    ).serve()
                    status = 0
                finally:
                    db.close()
            except BaseException:  # noqa: BLE001 - child must always _exit
                status = 1
            finally:
                try:
                    child_sock.close()
                except OSError:
                    pass
                os._exit(status)
        # -- parent
        child_sock.close()
        parent_sock.setblocking(False)
        worker.pid = pid
        worker.sock = parent_sock
        worker.frames = FrameSplitter()
        worker.outbuf = bytearray()
        worker.pending = deque()
        worker.generation += 1
        worker.spawned_at = time.monotonic()
        worker.respawn_at = None
        self._io.add_peer(
            worker, self._on_worker_response, self._handle_worker_crash
        )

    def _handle_worker_crash(self, worker: _WorkerHandle) -> None:
        """EOF/error on a worker pipe: fail its in-flight requests with
        the retriable BUSY status, reap the corpse, respawn on the same
        shard path."""
        if worker.sock is not None:
            self._io.close_sock(worker.sock)
            worker.sock = None
        pending, worker.pending = worker.pending, deque()
        for entry in pending:
            if entry[0] == "single":
                __, conn, rid = entry
                self._reply(conn, Message(protocol.RESP_BUSY, rid))
            else:
                __, gather, __idx = entry
                if not gather.done:
                    gather.done = True
                    self._reply(
                        gather.conn,
                        Message(protocol.RESP_BUSY, gather.request_id),
                    )
        self.stats.counter("service.worker_crashes").add(1)
        self._reap_worker(worker, time.monotonic() + 1.0)
        if self._stopping.is_set():
            return
        # Crash-loop backoff: a worker that keeps dying right after spawn
        # (bad shard path, corrupt state) respawns with exponential delay
        # instead of forking at EOF-detection speed; requests routed to it
        # answer BUSY until it is back.
        now = time.monotonic()
        if now - worker.spawned_at < 1.0:
            worker.strikes = min(worker.strikes + 1, 8)
        else:
            worker.strikes = 0
        if worker.strikes == 0:
            self._respawn(worker)
        else:
            worker.respawn_at = now + min(0.05 * (2 ** worker.strikes), 2.0)
            self._awaiting_respawn.append(worker)

    def _respawn(self, worker: _WorkerHandle) -> None:
        self._spawn_worker(worker)
        self.stats.counter("service.worker_respawns").add(1)

    def _check_respawns(self) -> None:
        now = time.monotonic()
        for worker in list(self._awaiting_respawn):
            if now >= worker.respawn_at:
                self._awaiting_respawn.remove(worker)
                self._respawn(worker)

    # -- event loop --------------------------------------------------------

    def _loop(self) -> None:
        while not self._stopping.is_set() and self._io.poll(0.05):
            if self._awaiting_respawn:
                self._check_respawns()

    def _on_accept(self) -> None:
        for conn in self._io.accept(
            self._listener, self._dispatch, self._close_client
        ):
            self._clients.add(conn)
            self.stats.counter("service.connections").add(1)

    def _close_client(self, conn: Peer) -> None:
        conn.alive = False
        self._io.close_sock(conn.sock)
        self._clients.discard(conn)

    def _on_worker_response(self, worker: _WorkerHandle, resp: Frame) -> None:
        if not worker.pending:
            # A response with nothing in flight: the pipe is out of sync.
            self._handle_worker_crash(worker)
            return
        entry = worker.pending.popleft()
        if entry[0] == "single":
            # Pass-through: the worker echoed the client's own request id
            # (the frame went through untouched), so its response frame --
            # CRC computed worker-side and still intact -- goes back as-is.
            __, conn, __rid = entry
            self._reply_raw(conn, resp.raw)
            return
        __, gather, worker_index = entry
        if gather.done:
            return
        # Gathered parts are re-encoded into one merged reply, so unlike a
        # pass-through frame their CRC would not reach the client: check it.
        resp.verify()
        gather.parts.append((worker_index, resp.message()))
        gather.remaining -= 1
        if gather.remaining == 0:
            gather.done = True
            self._finish_gather(gather)

    # -- request routing ---------------------------------------------------

    def _reply(self, conn: Peer, msg: Message) -> None:
        self._reply_raw(conn, protocol.encode_frame(msg))

    def _reply_raw(self, conn: Peer, raw: bytes) -> None:
        if conn.alive and not self._io.send(conn, raw):
            self._close_client(conn)

    def _reply_error(self, conn: Peer, rid: int, exc: Exception) -> None:
        self.stats.counter("service.errors").add(1)
        self._reply(conn, protocol.error_reply(rid, exc))

    def _reply_busy(self, conn: Peer, rid: int) -> None:
        self.stats.counter("service.busy_rejections").add(1)
        self._reply(conn, Message(protocol.RESP_BUSY, rid))

    def _worker_available(self, worker: _WorkerHandle) -> bool:
        return worker.alive and len(worker.pending) < self.config.max_queue_depth

    def _forward(self, worker: _WorkerHandle, raw: bytes,
                 entry: tuple) -> None:
        """Send an already-framed request; FIFO order is the match key."""
        worker.pending.append(entry)
        if not self._io.send(worker, raw):
            self._handle_worker_crash(worker)

    def _worker_for_key(self, key: bytes) -> _WorkerHandle:
        return self._workers[shard_for_key(key, self.num_workers)]

    def _dispatch(self, conn: Peer, frame: Frame) -> None:
        frame.verify()  # the TCP edge is the trust boundary
        op = frame.opcode
        rid = frame.request_id
        _count_op(self.stats, self._op_counters, op)
        try:
            if op == protocol.OP_REPL_SUBSCRIBE:
                self._reply_error(conn, rid, InvalidArgumentError(
                    "the multi-process server does not stream replication; "
                    "subscribe to a per-shard server instead"
                ))
                return
            refusal = admit(
                self.config, self._auth_kds, self.stats, conn,
                frame.message() if op == protocol.OP_AUTH else frame,
            )
            if refusal is not None:
                self._reply(conn, refusal)
                return
            if op == protocol.OP_PING:
                self._reply(conn, Message(protocol.RESP_OK, rid))
                return
            if op == protocol.OP_TOPOLOGY:
                # The workers' listeners share this socket's bind address, so
                # the address the client reached us on reaches them too.
                host = conn.sock.getsockname()[0]
                self._reply(conn, Message(
                    protocol.RESP_OK, rid, protocol.encode_topology([
                        (host, port) for __, port in self.worker_addresses
                    ]),
                ))
                return
            if op in (protocol.OP_GET, protocol.OP_PUT, protocol.OP_DELETE):
                worker = self._worker_for_key(frame.key())
                if not self._worker_available(worker):
                    self._reply_busy(conn, rid)
                    return
                self._forwarded.add(1)
                # Pass-through: the client's frame goes to the worker
                # byte-for-byte (its request id and trace header intact),
                # so the hot path re-encodes nothing and re-CRCs nothing.
                self._forward(worker, frame.raw, ("single", conn, rid))
                return
            if op == protocol.OP_WRITE_BATCH:
                self._dispatch_write_batch(conn, frame)
                return
            if op in _GATHER_OPS:
                self._dispatch_gather(conn, frame)
                return
            self._reply_error(
                conn, rid, InvalidArgumentError(f"unknown opcode {op}")
            )
        except protocol.ProtocolError:
            raise
        except Exception as exc:  # noqa: BLE001 - every error goes on the wire
            self._reply_error(conn, rid, exc)

    def _dispatch_gather(self, conn: Peer, frame: Frame) -> None:
        """Fan one request out to every worker; merged on the way back."""
        rid = frame.request_id
        if not all(self._worker_available(w) for w in self._workers):
            self._reply_busy(conn, rid)
            return
        limit = None
        if frame.opcode == protocol.OP_SCAN:
            __, __end, limit = protocol.decode_scan(frame.payload())
        gather = _Gather(conn, rid, frame.opcode, len(self._workers), limit)
        self._forwarded.add(1)
        # Snapshot the target list first: _forward can crash-and-respawn a
        # worker, and the respawned worker must not receive a double send.
        # Every worker gets the client's frame verbatim (one shared bytes
        # object, no per-worker encode).
        for worker in list(self._workers):
            self._forward(worker, frame.raw, ("gather", gather, worker.index))
            if gather.done:
                return  # a crash mid-fanout already answered BUSY

    def _dispatch_write_batch(self, conn: Peer, frame: Frame) -> None:
        """Split a batch by shard; per-shard atomicity, like ShardedDB."""
        rid = frame.request_id
        __, batch = WriteBatch.deserialize(frame.payload())
        per_worker = split_batch(batch, self._worker_for_key)
        if not per_worker:
            self._reply(conn, Message(
                protocol.RESP_OK, rid, protocol.encode_sequence(0)
            ))
            return
        if not all(self._worker_available(w) for w in per_worker):
            self._reply_busy(conn, rid)
            return
        gather = _Gather(conn, rid, frame.opcode, len(per_worker))
        self._forwarded.add(1)
        for worker, sub in per_worker.items():
            raw = frame.raw  # whole batch on one shard: forwarded verbatim
            if len(per_worker) > 1:
                raw = protocol.encode_frame(
                    Message(frame.opcode, rid, sub.serialize(0), frame.trace)
                )
            self._forward(worker, raw, ("gather", gather, worker.index))
            if gather.done:
                return

    # -- gather completion -------------------------------------------------

    def _finish_gather(self, gather: _Gather) -> None:
        conn = gather.conn
        rid = gather.request_id
        if not conn.alive:
            return
        for __, part in gather.parts:
            if part.opcode == protocol.RESP_ERROR:
                self._reply(conn, Message(protocol.RESP_ERROR, rid, part.payload))
                return
        for __, part in gather.parts:
            if part.opcode == protocol.RESP_DEGRADED:
                self._reply(conn, Message(
                    protocol.RESP_DEGRADED, rid, part.payload
                ))
                return
        op = gather.opcode
        if op == protocol.OP_SCAN:
            per_shard = [
                protocol.decode_pairs(part.payload)
                for __, part in gather.parts
            ]
            merged = merge_scan_results(per_shard, gather.limit)
            self._reply(conn, Message(
                protocol.RESP_PAIRS, rid, protocol.encode_pairs(merged)
            ))
            return
        if op == protocol.OP_STATS:
            snapshots = sorted(
                (index, protocol.decode_stats(part.payload))
                for index, part in gather.parts
            )
            self._reply(conn, Message(
                protocol.RESP_STATS, rid,
                protocol.encode_stats(self._merged_stats(snapshots)),
            ))
            return
        if op == protocol.OP_HEALTH:
            worst = merge_health([
                protocol.decode_health(part.payload)
                for __, part in gather.parts
            ])
            self._reply(conn, Message(
                protocol.RESP_STATS, rid, protocol.encode_health(worst)
            ))
            return
        if op == protocol.OP_WRITE_BATCH:
            sequence = 0
            for __, part in gather.parts:
                if part.payload:
                    sequence = max(sequence, protocol.decode_sequence(part.payload))
            self._reply(conn, Message(
                protocol.RESP_OK, rid, protocol.encode_sequence(sequence)
            ))
            return
        # FLUSH / COMPACT: every part was RESP_OK.
        self._reply(conn, Message(protocol.RESP_OK, rid))

    def _merged_stats(self, snapshots: list[tuple[int, dict]]) -> dict:
        """The workers' sections merged (see ``merge_stats``) plus the
        front-end's own: its counters added to the workers' in ``server``
        (``service.get`` = forwarded here + served direct there), and a
        per-worker ``workers`` summary."""
        merged = merge_stats(snapshot for __, snapshot in snapshots)
        server = merged["server"] = sum_numeric(
            [merged.get("server", {}), self.stats.snapshot()]
        )
        for worker in self._workers:
            server[f"service.worker_inflight.{worker.index}"] = len(
                worker.pending
            )
            server[f"service.worker_generation.{worker.index}"] = (
                worker.generation
            )
        merged["workers"] = {
            str(index): {
                "health": snapshot.get("health", {}),
                "committed_sequence": snapshot.get("committed_sequence", 0),
            }
            for index, snapshot in snapshots
        }
        return merged
