"""The serving tier: a networked front-end for the encrypted LSM-KVS.

Everything below this package turns the embedded engine into a servable
system (the deployment shape of Section 2.2: many sharded primaries plus
read-only compute instances over shared state):

- :mod:`repro.service.protocol` -- the length-prefixed, CRC-protected
  binary wire format (GET/PUT/DELETE/WRITE_BATCH/SCAN/STATS plus the
  replication handshake), built from the same coding/checksum primitives
  as the storage formats;
- :mod:`repro.service.server` -- the serving core every deployment
  shape shares (the ``admit`` request edge, ``answer`` / ``execute``, the
  OP_STATS sections, the health / auto-recovery loop), the one executor
  loop that runs it (one engine, one thread, direct connections served in
  arrival order, replication subscriptions handed to streamer threads) and
  ``KVServer``, that loop on a thread in front of a ``DB`` or ``ShardedDB``;
- :mod:`repro.service.client` -- a pooled client (one ``Endpoint`` per
  address under every path) with timeouts, retry-with-backoff on
  BUSY/transient socket errors, and a batched pipeline API; one
  ``KVClient`` routes by shard over the workers it learned behind one
  address or over a given list of servers (``KVClient.over``), and
  duck-types the ``DB`` read/write surface so the existing benchmark
  workloads run unmodified over the socket;
- :mod:`repro.service.replica` -- replication: a replica is a
  ``ReadOnlyInstance`` over store files the primary ships as storage holds
  them (incremental checkpoints) plus its committed WAL records, sealed
  under a per-stream DEK; a replica resolves every DEK through its *own*
  KeyClient, so an unauthorized one never sees plaintext;
- :mod:`repro.service.workers` -- shard-per-core: the same loop in N
  forked worker processes, each owning one shard (its own WAL, block
  cache, DEK cache, and KeyClient) and its own port, behind a selectors
  front-end with per-worker BUSY backpressure, crash detection + respawn,
  and scatter-gathered cross-shard operations.
"""

from repro.service.client import KVClient, Pipeline
from repro.service.protocol import Message, ProtocolError
from repro.service.replica import Replica
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer

__all__ = [
    "KVClient",
    "KVServer",
    "Message",
    "MultiProcessKVServer",
    "Pipeline",
    "ProtocolError",
    "Replica",
    "ServiceConfig",
]
