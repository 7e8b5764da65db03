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
- a connection that errors is discarded, not returned to the pool.

``pipeline()`` batches many requests onto one connection and matches the
out-of-order responses by request ID -- the network round-trip is paid
once per batch instead of once per operation.

**Routing.**  A ``KVClient`` is given one address.  On its first keyed
op it asks that server's topology once (``OP_TOPOLOGY``, over the normal
pooled, already-AUTHed connection).  A multi-process server answers with
its shard workers' endpoints; the client then holds one
:class:`ShardedKVClient` over them -- the same per-endpoint clients and
the same ``shard_for_key`` routing a user-built ``ShardedKVClient`` has --
and sends GET/PUT/DELETE through the owning worker's pool and scatters
SCAN over all of them (every part sent, then every part read, merged
here).  WRITE_BATCH, STATS, FLUSH, COMPACT, HEALTH, PING and
``pipeline()`` stay on the given address.  An empty answer (threaded
server, shard worker), an error answer (an older server) or a worker
endpoint that refuses the first connection (its port is not reachable
from here) leaves the client on the given address for good, exactly as
before.  There is nothing to configure, and the retry budget, backoff,
deadline and ``retries``/``busy_retries``/``degraded_retries`` counters
are the one client's whichever pool carried the request: a worker killed
mid-request resets the direct connection, which is a transient socket
error like any other.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time

from repro.dist.sharding import (
    HashRing,
    merge_health,
    merge_scan_results,
    merge_stats,
    shard_for_key,
    split_batch,
)
from repro.errors import BusyError, DegradedError, ReproError, ServiceError
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.protocol import Message


class _PooledConnection:
    """One socket plus the client-side request-id counter for it."""

    def __init__(self, host: str, port: int, timeout_s: float | None,
                 server_id: str | None, request_ids):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(timeout_s)
        self._reader = protocol.FrameReader(self.sock)
        self._request_ids = request_ids
        if server_id is not None:
            response = self.request(
                protocol.OP_AUTH, protocol.encode_auth(server_id)
            )
            if response.opcode == protocol.RESP_ERROR:
                raise protocol.decode_error(response.payload)

    def next_request_id(self) -> int:
        return next(self._request_ids)

    def send(self, msg: Message) -> None:
        protocol.send_message(self.sock, msg)

    def read(self) -> Message:
        msg = self._reader.read()
        if msg is None:
            raise ConnectionError("server closed the connection")
        return msg

    def request(
        self, opcode: int, payload: bytes = b"", trace: bytes = b""
    ) -> Message:
        """One in-flight request: send, read the matching response."""
        request_id = self.next_request_id()
        self.send(Message(opcode, request_id, payload, trace))
        response = self.read()
        if response.request_id != request_id:
            raise ServiceError(
                f"response id {response.request_id} != request id {request_id}"
            )
        return response

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class KVClient:
    """A thread-safe client for one server address.

    Behind a :class:`~repro.service.workers.MultiProcessKVServer` the
    address is only where the client *starts*: on its first keyed op it
    asks the server's topology (``OP_TOPOLOGY``, once) and from then on
    sends GET/PUT/DELETE straight to the owning shard worker and scatters
    SCAN over all of them -- see the module docstring.
    """

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
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.server_id = server_id
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.deadline_s = deadline_s
        self._rng = rng if rng is not None else random.Random()
        self.retries = 0
        self.busy_retries = 0
        self.degraded_retries = 0
        self._request_ids = itertools.count(1)
        self._pool: list[_PooledConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        # One client per shard worker behind this address, once asked for;
        # None after asking = there are none (or they cannot be reached).
        self._shards: ShardedKVClient | None = None
        self._shards_asked = False
        self._shards_lock = threading.Lock()

    # -- connection pool ---------------------------------------------------

    def _acquire(self) -> _PooledConnection:
        if self._closed:
            raise ServiceError("client is closed")
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return _PooledConnection(
            self.host, self.port, self.timeout_s, self.server_id,
            self._request_ids,
        )

    def _release(self, conn: _PooledConnection) -> None:
        with self._pool_lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()
        if self._shards is not None:
            self._shards.close()

    # -- direct routing ----------------------------------------------------

    def _direct(self) -> "ShardedKVClient | None":
        """The per-worker clients, learned on first use and kept for good (a
        server's topology never changes); None when every op goes through
        ``(host, port)``."""
        if not self._shards_asked:
            with self._shards_lock:
                if not self._shards_asked:
                    self._shards = self._learn_shards()
                    self._shards_asked = True
        return self._shards

    def _learn_shards(self) -> "ShardedKVClient | None":
        """Ask the topology and connect to every endpoint in it.

        An empty topology (a threaded server, a shard worker), an error
        reply (an older server: "unknown opcode") and a worker endpoint
        that cannot be connected to (its port is firewalled) all mean the
        same: stay on the one address, where nothing is lost but a hop.
        """
        try:
            endpoints = protocol.decode_topology(
                self._request(protocol.OP_TOPOLOGY).payload
            )
        except ReproError:
            return None
        if not endpoints:
            return None
        shards = ShardedKVClient(
            endpoints, pool_size=self.pool_size, timeout_s=self.timeout_s,
            server_id=self.server_id,
        )
        try:
            for client in shards._all():
                client._release(client._acquire())
        except (OSError, ReproError):
            shards.close()
            return None
        return shards

    def _begin(self, opcode: int, payload: bytes, trace: bytes):
        """Send one request on a pooled connection without waiting for the
        reply; None when the socket failed."""
        try:
            conn = self._acquire()
        except OSError:
            return None
        request_id = conn.next_request_id()
        try:
            conn.send(Message(opcode, request_id, payload, trace))
        except OSError:
            conn.close()
            return None
        return conn, request_id

    def _finish(self, sent) -> Message | None:
        """The reply to what :meth:`_begin` sent; None when there is none to
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
        self._release(conn)
        return response

    def _via(self, key: bytes) -> "KVClient":
        """The client whose pool reaches ``key``'s engine in one hop."""
        shards = self._direct()
        return self if shards is None else shards.client_for_key(key)

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    @staticmethod
    def _attempt(pool: "KVClient", opcode: int, payload: bytes, trace):
        """One try over ``pool``: ``(response, None)``, or ``(error, name of
        the retry counter it falls under)`` when another try may fare better."""
        try:
            conn = pool._acquire()
        except OSError as exc:
            return exc, "retries"
        try:
            response = conn.request(opcode, payload, trace)
        except (OSError, protocol.ProtocolError) as exc:
            conn.close()
            return exc, "retries"
        pool._release(conn)
        if response.opcode == protocol.RESP_BUSY:
            return BusyError("server queue full"), "busy_retries"
        if response.opcode == protocol.RESP_DEGRADED:
            health = protocol.decode_health(response.payload)
            return DegradedError(
                f"server degraded ({health.get('reason') or 'unknown'})"
            ), "degraded_retries"
        return response, None

    def _request(self, opcode: int, payload: bytes = b"",
                 via: "KVClient | None" = None) -> Message:
        """Send one request, retrying BUSY/DEGRADED and transient socket
        errors under the per-request deadline.  ``via`` is the client whose
        connection pool carries it (a shard worker's; default this one's):
        the retry budget, backoff and counters are always this client's."""
        pool = via or self
        op_name = protocol.OPCODE_NAMES.get(opcode, str(opcode))
        started_at = time.monotonic()
        with TRACER.span(f"client.{op_name}") as span:
            trace = TRACER.inject()
            last_error: Exception | None = None
            for attempt in range(self.max_retries + 1):
                outcome, counter = self._attempt(pool, opcode, payload, trace)
                if counter is None:
                    if outcome.opcode == protocol.RESP_ERROR:
                        raise protocol.decode_error(outcome.payload)
                    return outcome
                last_error = outcome
                setattr(self, counter, getattr(self, counter) + 1)
                span.incr(counter)
                if not self._sleep_within_deadline(started_at, attempt):
                    break
            if isinstance(last_error, (BusyError, DegradedError)):
                raise last_error
            raise ServiceError(
                f"request failed after retries: {last_error!r}"
            )

    # -- DB-shaped surface -------------------------------------------------

    def put(self, key: bytes, value: bytes, opts=None) -> None:
        self._request(
            protocol.OP_PUT, protocol.encode_put(key, value), self._via(key)
        )

    def get(self, key: bytes, opts=None) -> bytes | None:
        response = self._request(
            protocol.OP_GET, protocol.encode_key(key), self._via(key)
        )
        if response.opcode == protocol.RESP_NOT_FOUND:
            return None
        return protocol.decode_value(response.payload)

    def delete(self, key: bytes, opts=None) -> None:
        self._request(
            protocol.OP_DELETE, protocol.encode_key(key), self._via(key)
        )

    def write(self, batch: WriteBatch, opts=None) -> None:
        self._request(protocol.OP_WRITE_BATCH, batch.serialize(0))

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
        opts=None,
    ) -> list[tuple[bytes, bytes]]:
        payload = protocol.encode_scan(start, end, limit)
        shards = self._direct()
        if shards is not None:
            return _scatter_scan(self, shards._all(), payload, limit)
        return protocol.decode_pairs(
            self._request(protocol.OP_SCAN, payload).payload
        )

    def stats(self) -> dict:
        response = self._request(protocol.OP_STATS)
        return protocol.decode_stats(response.payload)

    def flush(self) -> None:
        self._request(protocol.OP_FLUSH)

    def compact_range(self) -> None:
        self._request(protocol.OP_COMPACT)

    def ping(self) -> None:
        self._request(protocol.OP_PING)

    def health(self) -> dict:
        """The server's health verdict (state / reason / error)."""
        response = self._request(protocol.OP_HEALTH)
        return protocol.decode_health(response.payload)

    def committed_sequence(self) -> int:
        return int(self.stats().get("committed_sequence", 0))

    def pipeline(self, max_inflight: int = 32) -> "Pipeline":
        return Pipeline(self, max_inflight=max_inflight)


class Pipeline:
    """Queue operations, send them in one burst, collect results in order.

    All queued requests travel on a single pooled connection without
    waiting for individual responses (per-connection pipelining); any that
    the server bounces with BUSY are retried individually through the
    client's backoff path.  At most ``max_inflight`` requests are
    unanswered at once: past that, each send is paired with a read, so an
    arbitrarily large pipeline cannot fill both TCP buffers and deadlock
    against a server blocked on its own writes.
    """

    def __init__(self, client: KVClient, max_inflight: int = 32):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._client = client
        self._max_inflight = max_inflight
        self._ops: list[tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def put(self, key: bytes, value: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_PUT, protocol.encode_put(key, value)))
        return self

    def get(self, key: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_GET, protocol.encode_key(key)))
        return self

    def delete(self, key: bytes) -> "Pipeline":
        self._ops.append((protocol.OP_DELETE, protocol.encode_key(key)))
        return self

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None) -> "Pipeline":
        self._ops.append(
            (protocol.OP_SCAN, protocol.encode_scan(start, end, limit))
        )
        return self

    def execute(self) -> list:
        """Run the queued ops; returns one decoded result per op, in order."""
        if not self._ops:
            return []
        ops, self._ops = self._ops, []
        client = self._client
        with TRACER.span(
            "client.pipeline", attributes={"ops": len(ops)}
        ) as span:
            trace = TRACER.inject()
            conn = client._acquire()
            responses: dict[int, Message] = {}
            id_for_index: list[int] = []
            try:
                inflight = 0
                for opcode, payload in ops:
                    if inflight >= self._max_inflight:
                        response = conn.read()
                        responses[response.request_id] = response
                        inflight -= 1
                    request_id = conn.next_request_id()
                    id_for_index.append(request_id)
                    conn.send(Message(opcode, request_id, payload, trace))
                    inflight += 1
                while inflight:
                    response = conn.read()
                    responses[response.request_id] = response
                    inflight -= 1
            except (OSError, protocol.ProtocolError) as exc:
                conn.close()
                raise ServiceError(
                    f"pipeline failed mid-flight: {exc!r}"
                ) from exc
            client._release(conn)

            results = []
            for (opcode, payload), request_id in zip(ops, id_for_index):
                response = responses.get(request_id)
                if response is None or response.opcode in (
                    protocol.RESP_BUSY, protocol.RESP_DEGRADED
                ):
                    # Bounced by backpressure or degraded mode: retry
                    # through the slow path (which backs off).
                    client.busy_retries += 1
                    span.incr("busy_retries")
                    response = client._request(opcode, payload)
                results.append(self._decode(opcode, response))
            return results

    @staticmethod
    def _decode(opcode: int, response: Message):
        if response.opcode == protocol.RESP_ERROR:
            raise protocol.decode_error(response.payload)
        if opcode == protocol.OP_GET:
            if response.opcode == protocol.RESP_NOT_FOUND:
                return None
            return protocol.decode_value(response.payload)
        if opcode == protocol.OP_SCAN:
            return protocol.decode_pairs(response.payload)
        return None


def _scatter_scan(owner: "KVClient | None", clients: "list[KVClient]",
                  payload: bytes, limit: int | None):
    """One SCAN over disjoint shards: send every part, then read every
    part (the shards work in parallel), k-way merge, limit applied once.

    A part that bounced BUSY/DEGRADED or lost its socket is retried alone
    through the backoff path, as ``Pipeline.execute`` does -- ``owner``'s
    when the endpoints are one client's shard workers, else the
    endpoint's own.
    """
    with TRACER.span("client.scan", attributes={"parts": len(clients)}):
        trace = TRACER.inject()
        inflight = [
            client._begin(protocol.OP_SCAN, payload, trace) for client in clients
        ]
        responses = [
            client._finish(sent) for client, sent in zip(clients, inflight)
        ]
        parts = []
        for client, response in zip(clients, responses):
            retrier = owner or client
            if response is None:
                retrier.retries += 1
            elif response.opcode == protocol.RESP_BUSY:
                retrier.busy_retries += 1
            elif response.opcode == protocol.RESP_DEGRADED:
                retrier.degraded_retries += 1
            elif response.opcode == protocol.RESP_ERROR:
                raise protocol.decode_error(response.payload)
            else:
                parts.append(protocol.decode_pairs(response.payload))
                continue
            parts.append(protocol.decode_pairs(retrier._request(
                protocol.OP_SCAN, payload, client
            ).payload))
        return merge_scan_results(parts, limit)


class ShardedKVClient:
    """Client-side shard routing across several KVServer endpoints.

    Two routing modes, chosen by the shape of ``endpoints``:

    - a **list** of ``(host, port)`` pairs, one per shard in shard order:
      single-key operations route by :func:`shard_for_key` -- the exact
      function the servers use, so client and server can never disagree
      (the function is PYTHONHASHSEED-independent by contract);
    - a **dict** of ``{node_name: (host, port)}``: routing goes through a
      consistent-hash :class:`HashRing` (pass ``ring`` to reuse one, or a
      ring is built from the node names), so adding an endpoint later
      moves only ~1/N of the keyspace instead of reshuffling every key.

    Cross-shard operations scatter to every endpoint and gather:
    ``scan`` k-way merges the per-shard sorted results and applies the
    limit once; ``stats`` sums numeric gauges and takes worst-of health;
    ``flush``/``compact_range`` fan out; ``write`` splits the batch per
    shard (atomicity holds per shard, as with ``ShardedDB``).

    Every per-endpoint client keeps ``KVClient``'s retry semantics, so a
    BUSY or DEGRADED shard backs off independently of the others.
    """

    def __init__(
        self,
        endpoints,
        ring: HashRing | None = None,
        **client_kwargs,
    ):
        if isinstance(endpoints, dict):
            self._names = sorted(endpoints)
            self._ring = ring if ring is not None else HashRing(self._names)
            missing = self._ring.nodes - set(self._names)
            if missing:
                raise ServiceError(
                    f"ring nodes without an endpoint: {sorted(missing)}"
                )
        else:
            if ring is not None:
                raise ServiceError(
                    "a HashRing needs named endpoints (pass a dict)"
                )
            endpoints = {
                str(index): pair for index, pair in enumerate(endpoints)
            }
            self._names = list(endpoints)  # shard order
            self._ring = None
        if not endpoints:
            raise ServiceError("at least one endpoint is required")
        self._clients = {
            name: KVClient(host, port, **client_kwargs)
            for name, (host, port) in endpoints.items()
        }

    @property
    def num_shards(self) -> int:
        return len(self._clients)

    def client_for_key(self, key: bytes) -> KVClient:
        """The endpoint client a key routes to (exposed for tests)."""
        return self._clients[self._route(key)]

    def _route(self, key: bytes) -> str:
        if self._ring is not None:
            return self._ring.node_for_key(key)
        return str(shard_for_key(key, len(self._names)))

    def _all(self) -> list[KVClient]:
        return [self._clients[name] for name in self._names]

    # -- DB-shaped surface -------------------------------------------------

    def put(self, key: bytes, value: bytes, opts=None) -> None:
        self.client_for_key(key).put(key, value)

    def get(self, key: bytes, opts=None) -> bytes | None:
        return self.client_for_key(key).get(key)

    def delete(self, key: bytes, opts=None) -> None:
        self.client_for_key(key).delete(key)

    def write(self, batch: WriteBatch, opts=None) -> None:
        for client, sub in split_batch(batch, self.client_for_key).items():
            client.write(sub)

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
        opts=None,
    ) -> list[tuple[bytes, bytes]]:
        return _scatter_scan(
            None, self._all(), protocol.encode_scan(start, end, limit), limit
        )

    def stats(self) -> dict:
        """Cross-endpoint merge with the same section layout as one
        server's OP_STATS (see :func:`merge_stats`), plus an
        ``endpoints`` section keyed by node name."""
        per_endpoint = {
            name: self._clients[name].stats() for name in self._names
        }
        merged = merge_stats(per_endpoint.values())
        merged["endpoints"] = {
            name: {
                "health": snapshot.get("health", {}),
                "committed_sequence": snapshot.get("committed_sequence", 0),
            }
            for name, snapshot in per_endpoint.items()
        }
        return merged

    def flush(self) -> None:
        for client in self._all():
            client.flush()

    def compact_range(self) -> None:
        for client in self._all():
            client.compact_range()

    def ping(self) -> None:
        for client in self._all():
            client.ping()

    def health(self) -> dict:
        return merge_health([client.health() for client in self._all()])

    def committed_sequence(self) -> int:
        return sum(client.committed_sequence() for client in self._all())

    def close(self) -> None:
        for client in self._all():
            client.close()

    def __enter__(self) -> "ShardedKVClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
