"""KVClient: pooled connections, retries with backoff, and pipelining.

The client duck-types the embedded ``DB`` read/write surface
(``put``/``get``/``delete``/``write``/``scan``/``flush``/
``compact_range``/``close``), so every existing benchmark workload runs
over the socket unchanged.  Transient failures are retried:

- ``RESP_BUSY`` (the server's backpressure signal), ``RESP_DEGRADED``
  (the engine is temporarily unwritable -- e.g. a KDS outage -- and
  expected to recover) and transient socket errors back off with
  full-jitter exponential sleeps up to ``max_retries``;
- ``deadline_s`` caps the *total* wall time one request may spend across
  retries and backoff sleeps -- a retry whose sleep would overshoot it is
  not attempted;
- a connection that errors is discarded, not returned to the pool -- and
  so is one whose reply comes back under another request id, and one that
  carried ``OP_REPL_SUBSCRIBE`` (the server made it a replication stream);
- ``timeout_s`` is the kernel's, on each ``send`` and ``recv`` call
  (``SO_SNDTIMEO`` / ``SO_RCVTIMEO`` on a blocking socket): a call that
  times out is a socket error like any other.

``pipeline()`` batches many requests onto one connection per shard and
matches the out-of-order responses by request ID -- the network round-trip
is paid once per batch instead of once per operation.

**Layers.**  An :class:`Endpoint` is one address: its connection pool and
the wire round trips over it -- no retries, no routing.  A
:class:`KVClient` is the shard endpoints it routes over (learned behind its
``home`` endpoint, or given to :meth:`KVClient.over`), the one retry budget
and the DB-shaped API.

**Routing** (DESIGN.md §10, "The front-end is a directory").  On its first
op a ``KVClient`` asks its server's topology once (``OP_TOPOLOGY``, over
the normal pooled, already-AUTHed connection).  A multi-process server
lists its shard workers' endpoints; a ``KVServer`` or a shard worker lists
none, and an older server answers with an error: either way ``home`` is
then the one shard.  Every op is routed over the shards: GET/PUT/DELETE to
the one ``shard_for_key`` names, a WRITE_BATCH split per shard, and SCAN,
FLUSH, COMPACT, HEALTH and STATS scattered over all of them and merged.
A listed endpoint that cannot be reached fails like any lost socket:
retries, then a :class:`ServiceError`.  A client built over a list of
servers (no ``home``) routes the same way.  The retry budget, backoff,
deadline and counters are the one client's whichever pool carried the
request.
"""

from __future__ import annotations

import itertools
import random
import socket
import struct
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
    summarize_parts,
)
from repro.errors import BusyError, DegradedError, ReproError, ServiceError
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.protocol import Message


#: ``client.<op>`` span names, resolved once per opcode.
_SPAN_NAMES = protocol.OpNames("client")


_TIMEVAL = struct.Struct("@ll")


def _timeval(seconds: float) -> bytes:
    """``seconds`` as a ``struct timeval`` (at least 1 µs: 0 would mean
    "never")."""
    micros = max(1, round(seconds * 1_000_000))
    return _TIMEVAL.pack(micros // 1_000_000, micros % 1_000_000)


class _PooledConnection:
    """One socket plus the client-side request-id counter for it.

    The socket is blocking, and ``timeout_s`` bounds each ``send`` and
    ``recv`` in the kernel (``SO_SNDTIMEO`` / ``SO_RCVTIMEO``): a Python-level
    timeout would cost a ``poll`` before every call.  A call that times out
    raises an ``OSError`` like any other socket failure."""

    def __init__(self, host: str, port: int, timeout_s: float | None,
                 server_id: str | None, request_ids):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.settimeout(None)
            if timeout_s is not None:
                limit = _timeval(timeout_s)
                self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
                self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
            self._reader = protocol.FrameReader(self.sock)
            self._request_ids = request_ids
            if server_id is not None:
                response = self.request(
                    protocol.OP_AUTH, protocol.encode_auth(server_id)
                )
                if response.opcode == protocol.RESP_ERROR:
                    raise protocol.decode_error(response.payload)
        except BaseException:
            self.close()  # a refused or garbled AUTH: nobody else holds it
            raise

    def next_request_id(self) -> int:
        return next(self._request_ids)

    def send(self, opcode: int, request_id: int, payload: bytes = b"",
             trace: bytes = b"") -> None:
        self.sock.sendall(
            protocol.pack_frame(opcode, request_id, payload, trace)
        )

    def read(self) -> Message:
        msg = self._reader.read()
        if msg is None:
            raise ConnectionError("server closed the connection")
        return msg

    def request(
        self, opcode: int, payload: bytes = b"", trace: bytes = b""
    ) -> Message:
        """One round trip: the frame packed once and sent, the reply read
        and matched to it.  A reply under another request id means the
        stream is out of step: a :class:`ProtocolError`, so the caller
        discards the connection as it does a damaged frame."""
        request_id = next(self._request_ids)
        self.sock.sendall(
            protocol.pack_frame(opcode, request_id, payload, trace)
        )
        response = self._reader.read()
        if response is None:
            raise ConnectionError("server closed the connection")
        if response.request_id != request_id:
            raise protocol.ProtocolError(
                f"response id {response.request_id} != request id {request_id}"
            )
        return response

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Endpoint:
    """One server address: its connection pool and the wire round trips
    over it.  Retrying and choosing an endpoint are the caller's.

    The pool takes no lock: a ``deque``'s ``pop`` and ``append`` are atomic,
    and a connection given back past ``pool_size`` (or after :meth:`close`)
    is closed at once, so at most ``pool_size`` idle connections stay open."""

    def __init__(self, host: str, port: int, pool_size: int = 4,
                 timeout_s: float | None = 10.0,
                 server_id: str | None = None):
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.server_id = server_id
        self._request_ids = itertools.count(1)
        self._pool: deque[_PooledConnection] = deque()
        self._closed = False

    def at(self, host: str, port: int) -> "Endpoint":
        """An endpoint for another address, pooled and AUTHed as this is."""
        return Endpoint(
            host, port, self.pool_size, self.timeout_s, self.server_id
        )

    def acquire(self) -> _PooledConnection:
        """A pooled connection, or a fresh (connected, AUTHed) one."""
        if self._closed:
            raise ServiceError("client is closed")
        try:
            return self._pool.pop()
        except IndexError:
            return _PooledConnection(
                self.host, self.port, self.timeout_s, self.server_id,
                self._request_ids,
            )

    def release(self, conn: _PooledConnection) -> None:
        pool = self._pool
        pool.append(conn)
        # Checked after the append: a close() that drained the pool before
        # it, or a pool another thread filled, gives one connection back.
        if self._closed or len(pool) > self.pool_size:
            try:
                pool.popleft().close()
            except IndexError:
                pass

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                self._pool.pop().close()
            except IndexError:
                return

    def call(self, opcode: int, payload: bytes = b"",
             trace: bytes = b"") -> Message:
        """One request, one reply.  A connection that errors is discarded,
        not returned to the pool, and the error propagates.  So is one that
        carried a subscription: the server made it a replication stream."""
        conn = self.acquire()
        try:
            response = conn.request(opcode, payload, trace)
        except (OSError, protocol.ProtocolError):
            conn.close()
            raise
        if opcode == protocol.OP_REPL_SUBSCRIBE:
            conn.close()
        else:
            self.release(conn)
        return response

    def begin(self, opcode: int, payload: bytes, trace: bytes):
        """Send one request without waiting for the reply; None when the
        socket failed -- a fresh connection's AUTH exchange included, as
        :meth:`call` lets the caller retry it."""
        try:
            conn = self.acquire()
        except (OSError, protocol.ProtocolError):
            return None
        request_id = conn.next_request_id()
        try:
            conn.send(opcode, request_id, payload, trace)
        except OSError:
            conn.close()
            return None
        return conn, request_id

    def finish(self, sent) -> Message | None:
        """The reply to what :meth:`begin` sent; None when there is none to
        be had on that connection (which is then discarded)."""
        if sent is None:
            return None
        conn, request_id = sent
        try:
            response = conn.read()
        except (OSError, protocol.ProtocolError):
            response = None
        if response is None or response.request_id != request_id:
            conn.close()
            return None
        self.release(conn)
        return response


def _bounce(response: Message | None) -> tuple[Exception, str] | None:
    """Why a reply is not an answer -- ``(error, name of the retry counter
    it falls under)``, None standing for a lost socket -- or None when it
    is one.  The server's own error (``RESP_ERROR``) is raised."""
    if response is None:
        return ConnectionError("no reply on that connection"), "retries"
    if response.opcode == protocol.RESP_BUSY:
        return BusyError("server queue full"), "busy_retries"
    if response.opcode == protocol.RESP_DEGRADED:
        health = protocol.decode_health(response.payload)
        return DegradedError(
            f"server degraded ({health.get('reason') or 'unknown'})"
        ), "degraded_retries"
    if response.opcode == protocol.RESP_ERROR:
        raise protocol.decode_error(response.payload)
    return None


def _attempt(endpoint: Endpoint, opcode: int, payload: bytes, trace: bytes):
    """One try over ``endpoint``: ``(the answer, None)``, or ``(None,
    (error, name of the retry counter it falls under))`` for a bounce or a
    lost socket.  The server's own error (``RESP_ERROR``) is raised."""
    try:
        response = endpoint.call(opcode, payload, trace)
    except (OSError, protocol.ProtocolError) as exc:
        return None, (exc, "retries")
    bounce = _bounce(response)
    return (response, None) if bounce is None else (None, bounce)


class KVClient:
    """A thread-safe client for one server address -- behind a
    multi-process server, only where it *starts* -- or, built by
    :meth:`over`, for a list of shard servers (module docstring,
    "Routing")."""

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        timeout_s: float | None = 10.0,
        server_id: str | None = None,
        max_retries: int = 6,
        backoff_base_s: float = 0.01,
        backoff_max_s: float = 0.5,
        deadline_s: float | None = None,
        rng: random.Random | None = None,
    ):
        #: The address this client was given; None for one built :meth:`over`.
        self.home = Endpoint(host, port, pool_size, timeout_s, server_id)
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.deadline_s = deadline_s
        self._rng = rng if rng is not None else random.Random()
        self.retries = 0
        self.busy_retries = 0
        self.degraded_retries = 0
        # None until learned; then the workers (empty: ``home`` is the one
        # shard) and the endpoints every op is routed over.
        self._workers: list[Endpoint] | None = None
        self._shards: list[Endpoint] | None = None
        self._workers_lock = threading.Lock()

    @classmethod
    def over(cls, addresses, **kwargs) -> "KVClient":
        """A client for separate servers, one per shard: ``addresses`` is
        ``(host, port)`` pairs in shard order, routed by the servers' own
        :func:`shard_for_key`.  It has no ``home``, so a ``request()``
        naming no endpoint raises :class:`ServiceError`; ``kwargs`` are the
        constructor's."""
        addresses = list(addresses)
        if not addresses:
            raise ServiceError("at least one endpoint is required")
        client = cls(*addresses[0], **kwargs)
        cls._route_over(client, addresses)
        return client

    def _route_over(self, addresses) -> None:
        """No ``home``: the shards are ``addresses``, as given."""
        self._workers = self._shards = [
            self.home.at(*address) for address in addresses
        ]
        self.home = None

    def close(self) -> None:
        if self.home is not None:
            self.home.close()
        for endpoint in self._workers or ():
            endpoint.close()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- routing -----------------------------------------------------------

    def workers(self) -> list[Endpoint]:
        """The shard endpoints, in shard order: given to :meth:`over`, or
        the workers behind ``home``, learned on first use and kept for good
        (a server's topology never changes); empty when ``home`` is itself
        the one shard."""
        if self._workers is None:
            with self._workers_lock:
                if self._workers is None:
                    workers = self._learn_workers()
                    self._shards = workers or [self.home]
                    self._workers = workers
        return self._workers

    def shards(self) -> list[Endpoint]:
        """The endpoints every op is routed over, in shard order: the
        :meth:`workers`, or ``[home]`` when there are none."""
        return self._shards or self.workers() or [self.home]

    def _learn_workers(self) -> list[Endpoint]:
        """The endpoints ``OP_TOPOLOGY`` lists.  An error reply (an older
        server: "unknown opcode") means there are none, for good.  A request
        that failed after its retries decides nothing: its retriable
        ``ServiceError`` fails the op that asked, and the next op asks
        again (sent to ``home``, the op would meet a front-end's refusal)."""
        try:
            reply = self.request(protocol.OP_TOPOLOGY)
        except ServiceError:  # BusyError and DegradedError among them
            raise
        except ReproError:
            return []
        return [
            self.home.at(*address)
            for address in protocol.decode_topology(reply.payload)
        ]

    def owner(self, key: bytes) -> Endpoint:
        """The shard endpoint that owns ``key``."""
        shards = self._shards or self.shards()
        if len(shards) == 1:
            return shards[0]
        return shards[shard_for_key(key, len(shards))]

    # -- request core ------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        """Full-jitter exponential backoff: a uniform draw from
        ``[0, min(cap, base * 2**attempt)]``, so a burst of clients does
        not retry in lockstep against a recovering server."""
        ceiling = min(self.backoff_base_s * (2 ** attempt), self.backoff_max_s)
        return self._rng.uniform(0.0, ceiling)

    def _sleep_within_deadline(self, started_at: float, attempt: int) -> bool:
        """Sleep the jittered backoff; False when the request's deadline
        would be overshot (the caller gives up instead of sleeping)."""
        delay = self._backoff_s(attempt)
        if (
            self.deadline_s is not None
            and time.monotonic() - started_at + delay > self.deadline_s
        ):
            return False
        time.sleep(delay)
        return True

    def _book(self, counter: str) -> None:
        """One more retry under ``counter``, here and on the active span."""
        setattr(self, counter, getattr(self, counter) + 1)
        span = TRACER.current()
        if span is not None:
            span.incr(counter)

    def request(self, opcode: int, payload: bytes = b"",
                endpoint: Endpoint | None = None) -> Message:
        """Send one request, retrying BUSY/DEGRADED and transient socket
        errors under the per-request deadline.  ``endpoint`` is whose pool
        carries it (default ``home``): the retry budget, backoff and
        counters are always this client's.

        The first try is one round trip on a pooled connection; the retry
        loop is entered only when it bounced or lost its socket."""
        if endpoint is None:
            endpoint = self.home
            if endpoint is None:
                raise ServiceError("this client has no home: name an endpoint")
        started_at = time.monotonic()
        with TRACER.span(_SPAN_NAMES[opcode]):
            trace = TRACER.inject()
            response, failure = _attempt(endpoint, opcode, payload, trace)
            attempt = 0
            while failure is not None:
                self._book(failure[1])
                if (
                    attempt == self.max_retries
                    or not self._sleep_within_deadline(started_at, attempt)
                ):
                    error = failure[0]
                    if isinstance(error, (BusyError, DegradedError)):
                        raise error
                    raise ServiceError(
                        f"request failed after retries: {error!r}"
                    )
                response, failure = _attempt(endpoint, opcode, payload, trace)
                attempt += 1
            return response

    def settle(self, response: Message | None, opcode: int, payload: bytes,
               endpoint: Endpoint | None = None) -> Message:
        """The answer to a request whose first try happened outside
        :meth:`request` (a pipelined burst, a scattered scan part):
        ``response`` when it is one; else the bounce -- BUSY, DEGRADED, or
        None for a lost socket -- is booked under its own counter and the
        request retried alone, with backoff."""
        bounce = _bounce(response)
        if bounce is None:
            return response
        self._book(bounce[1])
        return self.request(opcode, payload, endpoint)

    def _scatter(self, opcode: int,
                 parts: "list[tuple[Endpoint, bytes]]") -> list[Message]:
        """One request per ``(endpoint, payload)`` part: every part sent,
        then every part read (the shards work in parallel), then each
        settled in part order (a bounce retried alone; RESP_ERROR raised)."""
        with TRACER.span(_SPAN_NAMES[opcode], attributes={"parts": len(parts)}):
            trace = TRACER.inject()
            sent = [e.begin(opcode, payload, trace) for e, payload in parts]
            replies = [e.finish(s) for (e, __), s in zip(parts, sent)]
            return [self.settle(reply, opcode, payload, e)
                    for (e, payload), reply in zip(parts, replies)]

    def _each(self, opcode: int, payload: bytes = b"") -> list[Message]:
        """The answer of every shard, in shard order: one request when
        there is one shard, else scattered."""
        shards = self.shards()
        if len(shards) == 1:
            return [self.request(opcode, payload, shards[0])]
        return self._scatter(opcode, [(e, payload) for e in shards])

    # -- DB-shaped surface -------------------------------------------------

    def put(self, key: bytes, value: bytes, opts=None) -> None:
        self.request(
            protocol.OP_PUT, protocol.encode_put(key, value), self.owner(key)
        )

    def get(self, key: bytes, opts=None) -> bytes | None:
        response = self.request(
            protocol.OP_GET, protocol.encode_key(key), self.owner(key)
        )
        if response.opcode == protocol.RESP_NOT_FOUND:
            return None
        return protocol.decode_value(response.payload)

    def delete(self, key: bytes, opts=None) -> None:
        self.request(
            protocol.OP_DELETE, protocol.encode_key(key), self.owner(key)
        )

    def write(self, batch: WriteBatch, opts=None) -> None:
        """One sub-batch per shard, atomic per shard."""
        shards = self.shards()
        if len(shards) == 1:
            self.request(protocol.OP_WRITE_BATCH, batch.serialize(0), shards[0])
            return
        per_shard = split_batch(batch, self.owner)
        self._scatter(protocol.OP_WRITE_BATCH, [
            (endpoint, per_shard[endpoint].serialize(0))
            for endpoint in shards if endpoint in per_shard
        ])

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
        opts=None,
    ) -> list[tuple[bytes, bytes]]:
        return _merge_pairs(
            self._each(protocol.OP_SCAN, protocol.encode_scan(start, end, limit)),
            limit,
        )

    def stats(self) -> dict:
        """The server's OP_STATS snapshot.  Over several shards, theirs
        merged (:func:`merge_stats`), a front-end's own ``server`` counters
        summed in, and an ``endpoints`` section by shard."""
        workers = self.workers()
        if not workers:
            return protocol.decode_stats(self.request(protocol.OP_STATS).payload)
        parts = [(e, b"") for e in workers]
        if self.home is not None:
            parts.insert(0, (self.home, b""))
        snapshots = [protocol.decode_stats(response.payload)
                     for response in self._scatter(protocol.OP_STATS, parts)]
        own = snapshots.pop(0).get("server", {}) if self.home is not None else {}
        merged = merge_stats(snapshots)
        merged["server"] = sum_numeric([merged.get("server", {}), own])
        merged["endpoints"] = summarize_parts(snapshots)
        return merged

    def flush(self) -> None:
        self._each(protocol.OP_FLUSH)

    def compact_range(self) -> None:
        self._each(protocol.OP_COMPACT)

    def ping(self) -> None:
        """One round trip to ``home``; with none, to every shard."""
        if self.home is not None:
            self.request(protocol.OP_PING)
        else:
            self._each(protocol.OP_PING)

    def health(self) -> dict:
        """The health verdict (state / reason / error); worst-of the
        shards'."""
        verdicts = [protocol.decode_health(response.payload)
                    for response in self._each(protocol.OP_HEALTH)]
        return verdicts[0] if len(verdicts) == 1 else merge_health(verdicts)

    def committed_sequence(self) -> int:
        return int(self.stats().get("committed_sequence", 0))

    def pipeline(self, max_inflight: int = 32) -> "Pipeline":
        return Pipeline(self, max_inflight=max_inflight)


def _merge_pairs(parts: list[Message], limit: int | None) -> list:
    """One SCAN's pairs from its per-shard replies, in shard order."""
    if len(parts) == 1:
        return protocol.decode_pairs(parts[0].payload)
    # A part's pairs are decoded only as the merge takes them.
    return merge_scan_results(
        [protocol.iter_pairs(part.payload) for part in parts], limit
    )


class Pipeline:
    """Queue operations, send them in one burst, collect results in order.

    Each op is routed as the client routes it -- a keyed op to its owner,
    a scan to every shard (merged) -- and every shard's share of the burst
    travels on one pooled connection to it without waiting for individual
    responses; the shards work in parallel.  Any reply the server bounces
    (BUSY, DEGRADED) is retried individually through the client's backoff
    path.  At most ``max_inflight`` requests are unanswered on one
    connection at once: past that, each send is paired with a read, so an
    arbitrarily large pipeline cannot fill both TCP buffers and deadlock
    against a server blocked on its own writes.
    """

    def __init__(self, client: KVClient, max_inflight: int = 32):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._client = client
        self._max_inflight = max_inflight
        # (opcode, payload, key): a key routes to its owner, None to all.
        self._ops: list[tuple[int, bytes, bytes | None]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def put(self, key: bytes, value: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_PUT, protocol.encode_put(key, value), key))
        return self

    def get(self, key: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_GET, protocol.encode_key(key), key))
        return self

    def delete(self, key: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_DELETE, protocol.encode_key(key), key))
        return self

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None) -> "Pipeline":
        self._ops.append(
            (protocol.OP_SCAN, protocol.encode_scan(start, end, limit), None)
        )
        return self

    def execute(self) -> list:
        """Run the queued ops; returns one decoded result per op, in order."""
        if not self._ops:
            return []
        ops, self._ops = self._ops, []
        client = self._client
        shards = client.shards()
        # Each op's parts, as indexes into ``sends``; each endpoint's lane,
        # the indexes of the parts it carries, in order.
        sends: list[tuple[Endpoint, int, bytes]] = []
        parts_of: list[list[int]] = []
        lanes: dict[Endpoint, list[int]] = {}
        for opcode, payload, key in ops:
            targets = shards if key is None else (client.owner(key),)
            parts = []
            for endpoint in targets:
                parts.append(len(sends))
                lanes.setdefault(endpoint, []).append(len(sends))
                sends.append((endpoint, opcode, payload))
            parts_of.append(parts)
        with TRACER.span("client.pipeline", attributes={"ops": len(ops)}):
            replies = self._run(sends, lanes, TRACER.inject())
            # A bounced part is retried alone through the slow path (which
            # backs off) before the parts behind it are looked at.
            return [
                self._decode(opcode, payload, [
                    client.settle(replies.get(i), opcode, payload, sends[i][0])
                    for i in parts
                ])
                for (opcode, payload, __), parts in zip(ops, parts_of)
            ]

    def _run(self, sends, lanes: dict, trace: bytes) -> dict[int, Message]:
        """Every lane's sends on one connection of its endpoint, at most
        ``max_inflight`` unanswered on each: ``{send index: its reply}``."""
        conns: dict[Endpoint, _PooledConnection] = {}
        replies: dict[int, Message] = {}
        done = False
        try:
            for endpoint in lanes:
                conns[endpoint] = endpoint.acquire()
            todo = {endpoint: deque(lane) for endpoint, lane in lanes.items()}
            flying: dict[Endpoint, dict[int, int]] = {e: {} for e in lanes}
            while any(todo.values()) or any(flying.values()):
                for endpoint, conn in conns.items():
                    queue, inflight = todo[endpoint], flying[endpoint]
                    while queue and len(inflight) < self._max_inflight:
                        index = queue.popleft()
                        request_id = conn.next_request_id()
                        inflight[request_id] = index
                        __, opcode, payload = sends[index]
                        conn.send(opcode, request_id, payload, trace)
                    if inflight:
                        response = conn.read()
                        index = inflight.pop(response.request_id, None)
                        if index is None:
                            raise protocol.ProtocolError(
                                f"reply to request {response.request_id}, "
                                f"which is not in flight"
                            )
                        replies[index] = response
            done = True
        except (OSError, protocol.ProtocolError) as exc:
            raise ServiceError(f"pipeline failed mid-flight: {exc!r}") from exc
        finally:
            for endpoint, conn in conns.items():
                if done:
                    endpoint.release(conn)
                else:
                    conn.close()  # its stream is out of step
        return replies

    @staticmethod
    def _decode(opcode: int, payload: bytes, parts: list[Message]):
        if opcode == protocol.OP_GET:
            (response,) = parts
            if response.opcode == protocol.RESP_NOT_FOUND:
                return None
            return protocol.decode_value(response.payload)
        if opcode == protocol.OP_SCAN:
            return _merge_pairs(parts, protocol.decode_scan(payload)[2])
        return None
