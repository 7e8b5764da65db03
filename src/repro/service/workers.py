"""Shard-per-core serving: a multi-process KVServer (DESIGN.md §10).

:class:`~repro.service.server.KVServer` is one executor loop under one
GIL.  This module runs the same loop
(:class:`~repro.service.server.ServingLoop`) in N forked processes, split
along the seams SHIELD's per-file DEK model already provides (each shard
is self-contained):

- N **worker processes**, each owning one shard -- its own engine, WAL,
  block cache, DEK cache and KeyClient -- whose loop serves the TCP
  connections of the shard's own listener.  The parent binds that
  listener once, before the first fork, and every incarnation of the
  worker inherits it: the port (``worker_addresses[i]``) never changes,
  and a connect made during a respawn waits in its backlog.
- one **event-loop front-end** (``selectors``) that is a directory: it
  answers OP_AUTH, OP_PING, OP_TOPOLOGY (the workers' endpoints, in shard
  order) and OP_STATS (its own ``server`` counters), and refuses every
  other request.  It never touches an engine and never forwards a frame.

A :class:`~repro.service.client.KVClient` asks ``OP_TOPOLOGY`` once and
then sends every request to the shard that owns it, scattering and
merging the cross-shard ones (SCAN, STATS, FLUSH, COMPACT, HEALTH, a
split WRITE_BATCH) itself.  A worker's port is a TCP edge with the
front-end's rules.  A replica subscribes to a worker's own port and
follows that shard across respawns.

Each worker's inherited ``socketpair`` is its lifeline, nothing more: no
frame travels on it.  The parent closing its end ends the worker's loop
(a graceful stop); the worker dying is an EOF on the parent's end, which
reaps the process and respawns it on the same shard path.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import threading
import time

from repro.errors import InvalidArgumentError, ServiceError
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.peers import Peer, PeerLoop
from repro.service.protocol import Frame, Message
from repro.service.server import (
    ServiceConfig,
    ServingLoop,
    admit,
    auth_kds,
    count_op,
    listen,
)
from repro.util.stats import StatsRegistry


class _WorkerHandle:
    """Parent-side state for one shard worker process."""

    __slots__ = (
        "index", "path", "listener", "pid", "sock", "generation",
        "spawned_at", "strikes", "respawn_at",
    )

    def __init__(self, index: int, path: str):
        self.index = index
        self.path = path
        self.listener: socket.socket | None = None  # every incarnation's
        self.pid: int | None = None
        self.sock: socket.socket | None = None      # the lifeline's end
        self.generation = 0
        self.spawned_at = 0.0
        self.strikes = 0              # consecutive crashes shortly after spawn
        self.respawn_at: float | None = None


class MultiProcessKVServer:
    """A directory front-end over N forked shard-worker processes.

    ``make_shard(shard_index, path) -> DB`` runs *inside the worker
    process* (the front-end never opens an engine), so each worker builds
    its own env, WAL, block cache, and KeyClient.  Shard ``i`` lives at
    ``{base_path}/shard-{i:03d}`` -- the same layout as ``ShardedDB`` --
    and a respawned worker reopens the same path, so on a durable env a
    crash loses nothing that was acked with a synced WAL.
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
        """Graceful shutdown: close the listeners, drop clients, close the
        lifelines (each worker closes its engine and exits), reap."""
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
        """Fork one shard worker, its lifeline a socketpair.

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
        worker.generation += 1
        worker.spawned_at = time.monotonic()
        worker.respawn_at = None
        # Nothing is ever written to the lifeline: readable means EOF.
        self._io.add_listener(
            parent_sock, lambda: self._handle_worker_crash(worker)
        )

    def _handle_worker_crash(self, worker: _WorkerHandle) -> None:
        """EOF on a worker's lifeline: reap the corpse, respawn on the same
        shard path.  Its clients see reset connections, and reconnects
        wait in the shard's listener until the respawn accepts them."""
        if worker.sock is not None:
            self._io.close_sock(worker.sock)
            worker.sock = None
        self.stats.counter("service.worker_crashes").add(1)
        self._reap_worker(worker, time.monotonic() + 1.0)
        if self._stopping.is_set():
            return
        # Crash-loop backoff: a worker that keeps dying right after spawn
        # (bad shard path, corrupt state) respawns with exponential delay
        # instead of forking at EOF-detection speed.
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

    # -- the directory -----------------------------------------------------

    def _dispatch(self, conn: Peer, frame: Frame) -> None:
        frame.verify()  # the TCP edge is the trust boundary
        op = frame.opcode
        count_op(self.stats, self._op_counters, op)
        reply = admit(
            self.config, self._auth_kds, self.stats, conn,
            frame.message() if op == protocol.OP_AUTH else frame,
        ) or self._answer(conn, op, frame.request_id)
        if conn.alive and not self._io.send(conn, protocol.encode_frame(reply)):
            self._close_client(conn)

    def _answer(self, conn: Peer, op: int, rid: int) -> Message:
        """The reply to an admitted request: the front-end answers what it
        knows alone, and sends every shard's request to the shard."""
        if op == protocol.OP_PING:
            return Message(protocol.RESP_OK, rid)
        if op == protocol.OP_TOPOLOGY:
            # The workers' listeners share this socket's bind address, so
            # the address the client reached us on reaches them too.
            host = conn.sock.getsockname()[0]
            return Message(protocol.RESP_OK, rid, protocol.encode_topology([
                (host, port) for __, port in self.worker_addresses
            ]))
        if op == protocol.OP_STATS:
            server = self.stats.snapshot()
            for worker in self._workers:
                server[f"service.worker_generation.{worker.index}"] = (
                    worker.generation
                )
            return Message(
                protocol.RESP_STATS, rid, protocol.encode_stats({"server": server})
            )
        if op in protocol.OPCODE_NAMES:
            error = InvalidArgumentError(
                f"the multi-process front-end does not serve "
                f"{protocol.OPCODE_NAMES[op]}: ask OP_TOPOLOGY and send it "
                f"to the per-shard endpoint"
            )
        else:
            error = InvalidArgumentError(f"unknown opcode {op}")
        self.stats.counter("service.errors").add(1)
        return protocol.error_reply(rid, error)
