"""WAL-shipping replication: primary-side log tailing, replica-side apply.

The primary registers a commit listener on the engine (``DB``'s WAL-tail
hook) and retains the newest committed WAL records with their sequence
ranges, as many bytes as the engine itself holds unflushed.  When a replica
subscribes it presents its server ID and the last sequence it applied; the
streamer

1. is refused outright if the KDS does not authorize the replica;
2. provisions a fresh *stream DEK* through the primary's KeyClient and
   sends only its DEK-ID (plus scheme and nonce) in the accept frame --
   the replica resolves the ID through its *own* KeyClient, so the KDS
   enforces authorization exactly as for shared files (Section 5.4), and
   a revoked replica cannot decrypt a single frame;
3. catches the replica up -- from the retained log when its resume point
   is covered, otherwise from a chunked engine snapshot (the same
   catch-up role :class:`repro.dist.readonly.ReadOnlyInstance` plays over
   shared storage, here over the wire); and
4. tails the live commit stream, sealing each WAL record as one unit of
   the stream at a running offset, under the engine's scheme in force
   (``make_file_crypto``): length-preserving under a stream cipher,
   tag-verified by the replica under an AEAD scheme -- a tampered frame
   is an ``AuthenticationError`` that drops the stream, never a value.

A reconnecting replica resumes from ``state.last_applied`` -- the
monotonic sequence handshake -- and re-applied records are idempotent
because the memtable resolves versions by sequence number.
"""

from __future__ import annotations

import bisect
import socket
import threading
import time

from repro.crypto.cipher import SCHEME_NONE, generate_nonce, scheme_id
from repro.errors import (
    AuthorizationError,
    KeyManagementError,
    ReplicationError,
    ReproError,
)
from repro.lsm.dbformat import TYPE_PUT
from repro.lsm.db import MAX_IMMUTABLE_MEMTABLES
from repro.lsm.filecrypto import FileCrypto, NULL_CRYPTO, make_file_crypto
from repro.lsm.iterator import key_range, newest_visible
from repro.lsm.memtable import Memtable
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.service.protocol import Message

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
    cannot serve a resume (the streamer ships a snapshot instead): the
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
    ) -> list[tuple[int, int, bytes]] | None:
        """Like :meth:`records_after`, blocking up to ``timeout`` if empty;
        None when the log no longer reaches back to ``seq``."""
        with self._cond:
            if seq < self.earliest_sequence:
                return None
            records = self.records_after(seq)
            if not records and not self._closed:
                self._cond.wait(timeout)
                records = self.records_after(seq)
            return None if seq < self.earliest_sequence else records

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


def _make_stream_crypto(key_client) -> tuple[FileCrypto, bytes]:
    """A fresh per-stream DEK under the scheme in force, or plaintext when
    the engine has no keys.  The stream is one more sealed file: each frame
    is a unit at the running offset, so under an AEAD scheme a flipped,
    dropped or reordered frame fails its tag on the replica."""
    if key_client is None:
        return NULL_CRYPTO, b""
    dek = key_client.new_dek()
    nonce = generate_nonce(dek.scheme)
    crypto = make_file_crypto(scheme_id(dek.scheme), dek.dek_id, dek.key, nonce)
    return crypto, nonce


def stream_to_replica(
    conn,
    request: Message,
    db,
    source: ReplicationSource,
    key_client,
    chunk_entries: int,
    stopping: threading.Event,
    stats,
) -> None:
    """Run one replica's stream until disconnect or server shutdown.

    ``conn`` is the server's connection object (``send``/``close``/
    ``alive``).  This call owns the connection's reader thread.
    """
    replica_id, resume_seq = protocol.decode_repl_subscribe(request.payload)
    crypto, nonce = _make_stream_crypto(key_client)
    conn.send(Message(
        protocol.RESP_REPL_ACCEPT,
        request.request_id,
        protocol.encode_repl_accept(
            crypto.scheme_id, crypto.dek_id, nonce, db.committed_sequence()
        ),
    ))
    offset = 0
    position = resume_seq
    # Exported through OP_STATS: the server derives per-replica lag from
    # this gauge against its committed sequence.
    position_gauge = stats.gauge(f"service.repl_position.{replica_id}")
    position_gauge.set(position)
    streams_gauge = stats.gauge("service.repl_streams")
    streams_gauge.add(1)

    def push(opcode: int, plain: bytes) -> None:
        nonlocal offset
        if opcode == protocol.RESP_REPL_FRAME:
            payload = crypto.seal(plain, offset)
            offset += len(payload)  # the stored length: AEAD appends a tag
        else:
            payload = plain
        conn.send(Message(opcode, 0, payload))

    try:
        while conn.alive and not stopping.is_set():
            records = source.wait_records_after(position, timeout=0.2)
            if records is None:
                # The retained log does not reach back to this stream's
                # position (a late subscriber, or one the log outran): ship
                # a consistent snapshot, then tail from its sequence.  The
                # begin marker tells the replica to drop any carried-over
                # state -- snapshot frames use synthetic sequences starting
                # at 1, and applying them on top of old entries at higher
                # real sequences would resurrect deleted keys and shadow
                # new values.
                snapshot_seq = db.committed_sequence()
                stats.counter("service.repl_snapshots").add(1)
                push(protocol.RESP_REPL_SNAPSHOT_BEGIN, b"")
                seq_base = 1  # live-key count never exceeds snapshot_seq
                batch = WriteBatch()
                for key, value in db.iterator():
                    batch.put(key, value)
                    if len(batch) >= chunk_entries:
                        push(protocol.RESP_REPL_FRAME, batch.serialize(seq_base))
                        seq_base += len(batch)
                        batch = WriteBatch()
                if len(batch):
                    push(protocol.RESP_REPL_FRAME, batch.serialize(seq_base))
                push(
                    protocol.RESP_REPL_POSITION,
                    protocol.encode_sequence(snapshot_seq),
                )
                position = snapshot_seq
                position_gauge.set(position)
                continue
            if not records and source.closed:
                return
            for first_seq, last_seq, payload in records:
                if last_seq <= position:
                    continue
                push(protocol.RESP_REPL_FRAME, payload)
                position = max(position, last_seq)
                position_gauge.set(position)
                stats.counter("service.repl_frames").add(1)
    except OSError:
        pass  # replica went away; it will resubscribe with its position
    finally:
        streams_gauge.add(-1)
        conn.close()


class ReplicaState:
    """ReadOnlyInstance-style serving state built from applied records.

    Detachable from the network loop so a restarted :class:`Replica` can
    resume exactly where the previous incarnation stopped (the reconnect
    handshake sends ``last_applied``).
    """

    def __init__(self):
        self._mem = Memtable()
        self._lock = threading.RLock()
        self.last_applied = 0
        self.records_applied = 0

    def reset(self) -> None:
        """Drop everything applied so far (a snapshot is about to arrive).

        Snapshot frames carry synthetic sequences from 1; any entries kept
        from a previous incarnation would sit at higher sequences and stay
        newest-visible over the snapshot's, resurrecting deletes.
        """
        with self._lock:
            self._mem = Memtable()
            self.last_applied = 0
            self.records_applied = 0

    def apply(self, first_seq: int, batch: WriteBatch) -> None:
        with self._lock:
            last_seq = batch.insert_into(self._mem, first_seq)
            self.last_applied = max(self.last_applied, last_seq)
            self.records_applied += 1

    def advance_to(self, seq: int) -> None:
        """Move the resume watermark (end-of-snapshot marker)."""
        with self._lock:
            self.last_applied = max(self.last_applied, seq)

    def get(self, key: bytes) -> bytes | None:
        with self._lock:
            result = self._mem.get(key)
        if result is None:
            return None
        vtype, value = result
        return value if vtype == TYPE_PUT else None

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        # The lock is held for the bounded walk, not for a copy of the tail.
        with self._lock:
            newest = newest_visible(self._mem.entries(start))
            return list(key_range(newest, start, end, limit))

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)


class Replica:
    """A read replica fed by a primary's WAL stream over the wire."""

    def __init__(
        self,
        host: str,
        port: int,
        server_id: str,
        key_client=None,
        state: ReplicaState | None = None,
        auto_reconnect: bool = True,
        reconnect_backoff_s: float = 0.05,
    ):
        self.host = host
        self.port = port
        self.server_id = server_id
        self.key_client = key_client
        # An empty ReplicaState is falsy (__len__), so test against None:
        # a carried-over-but-empty state must survive the restart.
        self.state = state if state is not None else ReplicaState()
        self.auto_reconnect = auto_reconnect
        self.reconnect_backoff_s = reconnect_backoff_s

        self.frames_received = 0
        self.snapshots_received = 0
        self.subscriptions = 0
        self.kds_flaps = 0  # reconnects caused by key-management outages
        self.last_resume_sequence: int | None = None
        self.last_error: BaseException | None = None

        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._connected = threading.Event()
        self._terminated = threading.Event()

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
        self._stop.set()
        self._close_socket()
        if self._thread is not None:
            self._thread.join()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the replication loop to terminate (e.g. auth refusal)."""
        return self._terminated.wait(timeout)

    def simulate_crash(self) -> None:
        """Sever the stream abruptly (the loop reconnects and resumes)."""
        self._close_socket()

    def _close_socket(self) -> None:
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Replica":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving surface ---------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        return self.state.get(key)

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None) -> list[tuple[bytes, bytes]]:
        return self.state.scan(start, end, limit)

    @property
    def connected(self) -> bool:
        return self._connected.is_set()

    def wait_connected(self, timeout: float | None = None) -> bool:
        return self._connected.wait(timeout)

    def wait_until_caught_up(self, target_seq: int, timeout: float = 10.0) -> bool:
        """Poll until ``last_applied`` reaches ``target_seq``."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.state.last_applied >= target_seq:
                return True
            time.sleep(0.005)
        return self.state.last_applied >= target_seq

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
                    # ``state.last_applied``, losing no position.
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
            resume = self.state.last_applied
            self.last_resume_sequence = resume
            protocol.send_message(sock, Message(
                protocol.OP_REPL_SUBSCRIBE,
                1,
                protocol.encode_repl_subscribe(self.server_id, resume),
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
            stream_scheme, dek_id, nonce, __ = protocol.decode_repl_accept(
                accept.payload
            )
            if stream_scheme != SCHEME_NONE:
                if self.key_client is None:
                    raise ReplicationError(
                        "stream is encrypted but this replica has no KeyClient"
                    )
                # KDS-side authorization: a revoked replica fails right here.
                dek = self.key_client.get_dek(dek_id)
                crypto = make_file_crypto(stream_scheme, dek_id, dek.key, nonce)
            else:
                crypto = NULL_CRYPTO
            self.subscriptions += 1
            self._connected.set()
            sock.settimeout(None)  # stop() closes the socket to unblock us

            offset = 0
            while not self._stop.is_set():
                msg = reader.read()
                if msg is None:
                    raise ReplicationError("primary closed the stream")
                if msg.opcode == protocol.RESP_REPL_FRAME:
                    plain = crypto.open(msg.payload, offset)
                    offset += len(msg.payload)
                    first_seq, batch = WriteBatch.deserialize(plain)
                    self.state.apply(first_seq, batch)
                    self.frames_received += 1
                elif msg.opcode == protocol.RESP_REPL_SNAPSHOT_BEGIN:
                    self.state.reset()
                elif msg.opcode == protocol.RESP_REPL_POSITION:
                    self.state.advance_to(protocol.decode_sequence(msg.payload))
                    self.snapshots_received += 1
                else:
                    raise ReplicationError(
                        f"unexpected stream frame {msg.opcode}"
                    )
        finally:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass
