"""Replication: a replica is a read-only instance over the primary's files
plus its log tail (DESIGN.md §6, *Replication handshake*).

Whenever the primary's retained log does not reach back to what a replica's
files hold, the streamer ships an *incremental checkpoint*: the SSTs the
replica lacks, the MANIFEST and CURRENT as storage holds them (each already
sealed under its own DEK, which the replica resolves through its own
KeyClient, Section 5.4), then ``REPL_POSITION``.  Between checkpoints it
tails committed WAL records.  The stream is one more sealed log: the
engine's provider seals it like any WAL (a DEK of its own under the
``encrypt_wal`` policy, retired when the stream ends), ``REPL_ACCEPT``
carries its envelope, and every frame is one unit keyed on its running
offset.  A checkpoint also empties the replica's tail, which so never
outgrows the primary's retained log.
"""

from __future__ import annotations

import bisect
import contextlib
import socket
import threading

from repro.dist.readonly import ReadOnlyInstance
from repro.env.mem import MemEnv
from repro.errors import (
    AuthorizationError,
    CorruptionError,
    KeyManagementError,
    NotFoundError,
    ReplicationError,
    ReproError,
)
from repro.lsm.db import MAX_IMMUTABLE_MEMTABLES
from repro.lsm.envelope import ENVELOPE_VERSION_UNITS, FILE_KIND_WAL
from repro.lsm.filecrypto import PlaintextCryptoProvider
from repro.lsm.filename import current_path, parse_file_name
from repro.lsm.memtable import Memtable
from repro.lsm.options import Options
from repro.lsm.version import Version
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.service.protocol import Message
from repro.shield.provider import ShieldCryptoProvider

#: Ceiling of a replica's doubling reconnect backoff.
MAX_BACKOFF_S = 1.0
#: Budget for a replica's TCP connect plus subscribe handshake.
CONNECT_TIMEOUT_S = 5.0


class ReplicationSource:
    """Primary-side retained log of committed WAL records.

    Hooks the engine's commit listener; every committed batch is retained
    as ``(first_seq, last_seq, payload)``.  The log holds at most what the
    engine itself keeps unflushed -- ``write_buffer_size`` payload bytes for
    the active memtable and each immutable one it allows -- oldest dropped
    first.  ``earliest_sequence`` is the watermark below which the log
    cannot serve a resume (the streamer ships a checkpoint instead): the
    engine's committed sequence at attach time, then the last sequence
    dropped.
    """

    def __init__(self, db):
        self.db = db
        self._max_bytes = db.options.write_buffer_size * (
            1 + MAX_IMMUTABLE_MEMTABLES
        )
        self._cond = threading.Condition()
        self._records: list[tuple[int, int, bytes]] = []
        self._closed = False
        self.retained_bytes = 0
        self.earliest_sequence = db.committed_sequence()
        db.add_commit_listener(self._on_commit)

    def _on_commit(self, first_seq: int, last_seq: int, payload: bytes) -> None:
        with self._cond:
            if self._closed:
                return
            self._records.append((first_seq, last_seq, payload))
            self.retained_bytes += len(payload)
            drop = 0
            while self.retained_bytes > self._max_bytes:
                self.retained_bytes -= len(self._records[drop][2])
                drop += 1
            if drop:
                self.earliest_sequence = self._records[drop - 1][1]
                del self._records[:drop]
            self._cond.notify_all()

    def records_after(self, seq: int) -> list[tuple[int, int, bytes]]:
        """Retained records whose first sequence is beyond ``seq``."""
        with self._cond:
            index = bisect.bisect_right(self._records, seq, key=lambda r: r[0])
            return self._records[index:]

    def wait_records_after(
        self, seq: int, timeout: float
    ) -> list[tuple[int, int, bytes]]:
        """Like :meth:`records_after`, blocking up to ``timeout`` if empty;
        whether the log reaches back to ``seq`` the caller checks after it."""
        with self._cond:
            records = self.records_after(seq)
            if not records and not self._closed:
                self._cond.wait(timeout)
                records = self.records_after(seq)
            return records

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        try:
            self.db.remove_commit_listener(self._on_commit)
        except Exception:  # noqa: BLE001 - engine may already be closed
            pass


def stream_to_replica(conn, request: Message, db, source: ReplicationSource,
                      stopping: threading.Event, stats) -> None:
    """Run one replica's stream until disconnect or server shutdown.

    ``conn`` is the server's connection object (``send``/``close``/
    ``alive``).  This call owns the connection's reader thread.
    """
    replica_id, position, held = protocol.decode_repl_subscribe(request.payload)
    stream_path = f"{db.path}/replication-{replica_id}"
    crypto = db.provider.for_new_file(FILE_KIND_WAL, stream_path)
    offset = 0
    # What the replica's files hold every write up to.  A reconnecting
    # replica's may be older than its position; taking the position only
    # lets its tail grow by one log more.
    base = position
    # Exported through OP_STATS: the server derives per-replica lag from
    # this gauge against its committed sequence.
    position_gauge = stats.gauge(f"service.repl_position.{replica_id}")
    position_gauge.set(position)
    streams_gauge = stats.gauge("service.repl_streams")
    streams_gauge.add(1)

    def push(opcode: int, plain: bytes) -> None:
        nonlocal offset
        if opcode == protocol.RESP_REPL_FRAME:
            payload = crypto.seal_unit(plain, offset)
            offset += len(payload)  # the stored length: AEAD appends a tag
        else:
            payload = plain
        conn.send(Message(opcode, 0, payload))

    try:
        conn.send(Message(
            protocol.RESP_REPL_ACCEPT,
            request.request_id,
            protocol.encode_repl_accept(
                crypto.envelope(FILE_KIND_WAL, ENVELOPE_VERSION_UNITS),
                db.committed_sequence(),
            ),
        ))
        while conn.alive and not stopping.is_set():
            records = source.wait_records_after(position, timeout=0.2)
            if base < source.earliest_sequence:
                base = position = db.committed_sequence()
                held, __ = db.copy_file_set(lambda name, data: push(
                    protocol.RESP_REPL_FILE, protocol.encode_repl_file(name, data)
                ), held)
                stats.counter("service.repl_checkpoints").add(1)
                position_gauge.set(position)
                push(protocol.RESP_REPL_POSITION, protocol.encode_sequence(base))
                continue
            if not records and source.closed:
                return
            for first_seq, last_seq, payload in records:
                if last_seq <= position:
                    continue
                # The gauge moves before the send: a replica that has
                # applied the frame must never read a lag the frame closed.
                position = last_seq
                position_gauge.set(position)
                push(protocol.RESP_REPL_FRAME, payload)
                stats.counter("service.repl_frames").add(1)
    except OSError:
        pass  # replica went away; it will resubscribe with its position
    finally:
        conn.close()
        # The stream's DEK goes with it, as a deleted file's does.
        db.provider.on_file_deleted(crypto.dek_id, stream_path)
        streams_gauge.add(-1)


class Replica(ReadOnlyInstance):
    """A read replica: a read-only instance over its own ``path`` on
    ``options.env`` (in memory by default) plus a tail memtable, fed by a
    primary's checkpoints and WAL stream.  Restarted over the same directory
    it resumes from what its files hold."""

    def __init__(self, host: str, port: int, server_id: str, key_client=None,
                 path: str = "/replica", options: Options | None = None,
                 auto_reconnect: bool = True, reconnect_backoff_s: float = 0.05):
        self.host, self.port, self.server_id = host, port, server_id
        self.auto_reconnect = auto_reconnect
        self.reconnect_backoff_s = reconnect_backoff_s

        self.frames_received = 0
        self.checkpoints_received = 0
        self.file_bytes_received = 0
        self.subscriptions = 0
        self.kds_flaps = 0  # reconnects caused by key-management outages
        self.last_resume_sequence: int | None = None
        self.last_error: BaseException | None = None

        self._applied = threading.Condition()
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._connected = threading.Event()
        self._terminated = threading.Event()

        options = options or Options(env=MemEnv())
        options.env.mkdirs(path)
        provider = (PlaintextCryptoProvider() if key_client is None
                    else ShieldCryptoProvider(key_client))
        self._tail = Memtable()
        try:
            super().__init__(path, options, provider)
        except (NotFoundError, CorruptionError) as exc:
            # A copy whose DEK the primary has retired since, or that no
            # longer reads: start over empty.  A KDS outage raises instead.
            self.last_error = exc
            self._tables.close()
            options.env.delete_file(current_path(path))
            self.refresh()
        # Memtables flush in sequence order, so the files hold every write up
        # to some sequence and none above it; their largest is such a base.
        self.last_applied = max(
            (meta.largest_seq for __, meta in self.live_files()), default=0
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Replica":
        if self._thread is not None:
            raise ReplicationError("replica already started")
        self._thread = threading.Thread(
            target=self._run, name=f"replica-{self.server_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the stream; what the replica holds stays readable."""
        self._stop.set()
        self._close_socket()
        if self._thread is not None:
            self._thread.join()

    def close(self) -> None:
        self.stop()
        super().close()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the replication loop to terminate (e.g. auth refusal)."""
        return self._terminated.wait(timeout)

    def simulate_crash(self) -> None:
        """Sever the stream abruptly (the loop reconnects and resumes)."""
        self._close_socket()

    def _close_socket(self) -> None:
        sock = self._sock
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    def __enter__(self) -> "Replica":
        return self.start()

    # -- state -------------------------------------------------------------

    @property
    def tail_bytes(self) -> int:
        """What the tail memtable holds: bounded by the primary's log."""
        return self._tail.approximate_size()

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    def wait_connected(self, timeout: float | None = None) -> bool:
        return self._connected.wait(timeout)

    def wait_until_caught_up(self, target_seq: int, timeout: float = 10.0) -> bool:
        """Wait until ``last_applied`` reaches ``target_seq``."""
        with self._applied:
            return self._applied.wait_for(
                lambda: self.last_applied >= target_seq, timeout
            )

    def _applied_through(self, seq: int) -> None:
        with self._applied:
            self.last_applied = seq
            self._applied.notify_all()

    def refresh(self, tail: Memtable | None = None) -> list[str]:
        """The directory's store under ``tail`` (by default the stream's);
        before the first checkpoint lands, the tail alone."""
        tail = self._tail if tail is None else tail
        if self.env.file_exists(current_path(self.path)):
            return super().refresh(tail)
        self._view = self._serving([tail], Version(self.options.num_levels))
        return []

    def _install(self, seq: int) -> None:
        """A checkpoint's files are in: serve them under a fresh tail and
        forget what they replace.  Should the open fail, the old view and its
        tail stay, and the stream resumes into them."""
        tail = Memtable()
        orphans = self.refresh(tail)
        self._tail = tail
        for path in orphans:
            self.env.delete_file(path)
        self.checkpoints_received += 1
        self._applied_through(seq)

    # -- stream loop -------------------------------------------------------

    def _run(self) -> None:
        backoff = self.reconnect_backoff_s
        try:
            while not self._stop.is_set():
                try:
                    self._stream_once()
                    backoff = self.reconnect_backoff_s
                except AuthorizationError as exc:
                    # Refused by policy: reconnecting cannot help.
                    self.last_error = exc
                    return
                except (OSError, ReproError) as exc:
                    # Retriable -- including KDS flaps (KDSUnavailableError
                    # is a KeyManagementError, not an AuthorizationError):
                    # the loop reconnects with backoff and resumes from
                    # ``last_applied``, losing no position.
                    self.last_error = exc
                    if isinstance(exc, KeyManagementError):
                        self.kds_flaps += 1
                finally:
                    self._connected.clear()
                if self._stop.is_set() or not self.auto_reconnect:
                    return
                self._stop.wait(backoff)
                backoff = min(backoff * 2, MAX_BACKOFF_S)
        finally:
            self._connected.clear()
            self._terminated.set()

    def _stream_once(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT_S
        )
        self._sock = sock
        try:
            if self._stop.is_set():
                return  # stop() ran before there was a socket for it to close
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.last_resume_sequence = self.last_applied
            held = [meta.number for __, meta in self.live_files()]
            protocol.send_message(sock, Message(
                protocol.OP_REPL_SUBSCRIBE,
                1,
                protocol.encode_repl_subscribe(
                    self.server_id, self.last_applied, held
                ),
            ))
            # Handshake and stream share it: it may hold frames behind the accept.
            reader = protocol.FrameReader(sock)
            accept = reader.read()
            if accept is None:
                raise ReplicationError("primary closed during handshake")
            if accept.opcode == protocol.RESP_ERROR:
                raise protocol.decode_error(accept.payload)
            if accept.opcode != protocol.RESP_REPL_ACCEPT:
                raise ReplicationError(
                    f"unexpected handshake frame {accept.opcode}"
                )
            envelope, __ = protocol.decode_repl_accept(accept.payload)
            # KDS-side authorization: a revoked replica fails right here.
            crypto = self.provider.for_existing_file(envelope, "the replication stream")
            self.subscriptions += 1
            self._connected.set()
            sock.settimeout(None)  # stop() closes the socket to unblock us

            offset = 0
            while not self._stop.is_set():
                msg = reader.read()
                if msg is None:
                    raise ReplicationError("primary closed the stream")
                if msg.opcode == protocol.RESP_REPL_FRAME:
                    plain = crypto.open_unit(msg.payload, offset)
                    offset += len(msg.payload)
                    first_seq, batch = WriteBatch.deserialize(plain)
                    self._applied_through(batch.insert_into(self._tail, first_seq))
                    self.frames_received += 1
                elif msg.opcode == protocol.RESP_REPL_FILE:
                    name, data = protocol.decode_repl_file(msg.payload)
                    if (parse_file_name(name) or ("wal",))[0] == "wal":
                        raise ReplicationError(f"not a shipped file: {name!r}")
                    self.env.write_file(f"{self.path}/{name}", data)
                    self.file_bytes_received += len(data)
                elif msg.opcode == protocol.RESP_REPL_POSITION:
                    self._install(protocol.decode_sequence(msg.payload))
                else:
                    raise ReplicationError(
                        f"unexpected stream frame {msg.opcode}"
                    )
        finally:
            self._sock = None
            with contextlib.suppress(OSError):
                sock.close()
