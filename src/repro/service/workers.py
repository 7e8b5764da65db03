"""Shard-per-core serving: a multi-process KVServer (DESIGN.md §10).

:class:`~repro.service.server.KVServer` is one executor loop under one
GIL.  This module runs the same loop
(:class:`~repro.service.server.ServingLoop`) in N forked processes, split
along the seams SHIELD's per-file DEK model already provides (each shard
is self-contained):

- N **worker processes**, each owning one shard -- its own engine, WAL,
  block cache, DEK cache and KeyClient -- whose loop answers the frames
  the front-end forwards on an inherited ``socketpair`` *and* direct TCP
  connections to the shard's own listener.  The parent binds that
  listener once, before the first fork, and every incarnation of the
  worker inherits it: the port (``worker_addresses[i]``) never changes,
  and a connect made during a respawn waits in its backlog.
- one **event-loop front-end** (``selectors``) that accepts TCP
  connections, routes single-key operations by
  :func:`~repro.dist.sharding.shard_for_key`, scatter-gathers the
  cross-shard ones (SCAN, STATS, FLUSH, COMPACT, HEALTH), splits
  WRITE_BATCH per shard, and never touches an engine itself.

``OP_TOPOLOGY`` tells a :class:`~repro.service.client.KVClient` the
workers' endpoints; it then sends GET/PUT/DELETE straight to the owning
worker and scatters SCAN itself (one round trip instead of two).  A direct
connection is a TCP edge with the front-end's rules, and one thread serves
all of a worker's sockets, so per-shard ordering holds across routes.  A
replica subscribes to a worker's own port and follows that shard across
respawns; the front-end, which holds no engine, refuses subscriptions.
"""

from __future__ import annotations

import contextlib
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
    ServiceConfig,
    ServingLoop,
    admit,
    auth_kds,
    count_op,
    listen,
)
from repro.util.stats import StatsRegistry

#: Opcodes the front-end fans out to every worker (or every involved one).
_GATHER_OPS = frozenset({
    protocol.OP_SCAN, protocol.OP_STATS, protocol.OP_FLUSH,
    protocol.OP_COMPACT, protocol.OP_HEALTH, protocol.OP_WRITE_BATCH,
})

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
        self.listener: socket.socket | None = None  # every incarnation's
        self.pid: int | None = None
        self.sock: socket.socket | None = None
        self.frames = FrameSplitter()
        self.outbuf = bytearray()
        # In flight, matched to replies by order (pass-through forwarding):
        # ("single", conn, rid) | ("gather", g, idx).
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

    **Pass-through forwarding.**  A worker answers its pipe in arrival
    order, so in-flight bookkeeping is a per-worker FIFO and routed frames
    travel *verbatim* both ways -- no request-id rewrite, no re-encode, no
    second CRC per hop: the checksum stays end-to-end through the proxy.
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
        self._cpus: list[int] = []  # the CPUs start() found this process on

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
        if hasattr(os, "sched_getaffinity"):  # Linux
            self._cpus = sorted(os.sched_getaffinity(0))
        self._io = PeerLoop()
        self._listener = listen(self.config.host, self.config.port)
        # Every shard's listener exists before the first fork, so each
        # worker can close the others' and no port ever changes.
        for worker in self._workers:
            worker.listener = listen(self.config.host, 0)
        for worker in self._workers:
            self._spawn_worker(worker)
        self._io.add_listener(self._listener, self._on_accept)
        self._loop_thread = threading.Thread(
            target=self._loop, name="kv-frontend", daemon=True
        )
        self._loop_thread.start()
        self._started = True
        return self

    def stop(self) -> None:
        """Graceful shutdown: close the listeners, drop clients, EOF the
        worker pipes (each worker closes its engine and exits), reap."""
        if not self._started or self._stopping.is_set():
            return
        self._stopping.set()
        self._loop_thread.join()  # its poll wakes every 50 ms
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
        opens.  Worker ``i``, every incarnation of it, pins itself to CPU
        ``i mod n`` of the front-end's, if let (DESIGN.md §10, "Placement").
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
                if self._cpus:
                    with contextlib.suppress(OSError):
                        cpus = self._cpus
                        os.sched_setaffinity(0, {cpus[worker.index % len(cpus)]})
                for sock in inherited:
                    with contextlib.suppress(OSError):
                        sock.close()
                self._io.close()
                TRACER.after_fork()
                db = self._make_shard(worker.index, worker.path)
                try:
                    ServingLoop(
                        db, child_sock, worker.listener, self.config
                    ).serve()
                    status = 0
                finally:
                    db.close()
            except BaseException:  # noqa: BLE001 - child must always _exit
                status = 1
            finally:
                with contextlib.suppress(OSError):
                    child_sock.close()
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
        count_op(self.stats, self._op_counters, op)
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
            merged = merge_scan_results(
                [protocol.iter_pairs(part.payload) for __, part in gather.parts],
                gather.limit,
            )
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
        for __, snapshot in snapshots:
            # One engine's health rank: the merged ``health`` section
            # carries the worst-of verdict instead.
            snapshot.get("server", {}).pop("service.health", None)
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
