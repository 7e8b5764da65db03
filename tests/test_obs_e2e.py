"""End-to-end observability: one remote PUT produces one correctly
parented trace across client, server, engine, and WAL; a sampled-out
request writes nothing; OP_STATS merges every layer's registry.

These tests reconfigure the process-global TRACER (that is the point:
the instrumented layers all use it), saving and restoring its state so
they compose with a process started under ``REPRO_TRACE=1`` (the model
test's traced examples use ``traced`` too).
"""

from __future__ import annotations

import contextlib
import socket
import threading

from repro.env.mem import MemEnv
from repro.env.metered import MeteredEnv
from repro.keys.client import KeyClient
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.obs import costs
from repro.obs.trace import TRACER, RingBufferSink
from repro.service.client import KVClient
from repro.service.replica import Replica
from repro.service.server import KVServer, ServiceConfig, ServingLoop
from repro.shield import ShieldOptions, open_shield_db


@contextlib.contextmanager
def traced(sample_rate: float = 1.0):
    """Point the global tracer at a fresh ring sink; restore on exit."""
    prev_enabled = TRACER.enabled
    prev_sinks = list(TRACER._sinks)
    prev_rate = TRACER.sample_rate
    sink = RingBufferSink(8192)
    TRACER.configure(enabled=True, sinks=[sink], sample_rate=sample_rate)
    try:
        yield sink
    finally:
        TRACER.configure(
            enabled=prev_enabled, sinks=prev_sinks, sample_rate=prev_rate
        )


def _open_shield_db(path="/obs", kds=None, env=None):
    kds = kds or InMemoryKDS()
    return open_shield_db(
        path,
        ShieldOptions(kds=kds, server_id="primary", wal_buffer_size=512),
        Options(env=env or MemEnv(), write_buffer_size=64 * 1024),
    )


def test_remote_put_traces_across_four_layers():
    db = _open_shield_db()
    with traced() as sink:
        with KVServer(db, ServiceConfig()) as server:
            with KVClient(*server.address) as client:
                client.put(b"traced-key", b"traced-value")
    db.close()

    by_name = {}
    for span in sink.spans():
        by_name.setdefault(span.name, span)
    for required in ("client.put", "server.put", "db.write", "wal.append"):
        assert required in by_name, f"missing span {required}"

    client_span = by_name["client.put"]
    server_span = by_name["server.put"]
    write_span = by_name["db.write"]
    wal_span = by_name["wal.append"]

    # One trace end to end, the client span as its root.
    trace_id = client_span.trace_id
    assert client_span.parent_id is None
    for span in (server_span, write_span, wal_span):
        assert span.trace_id == trace_id
    # The parent chain crosses the wire and then the engine layers.
    assert server_span.parent_id == client_span.span_id
    assert write_span.parent_id == server_span.span_id
    assert wal_span.parent_id == write_span.span_id
    # And it is exactly one trace in the sink for that id.
    assert trace_id in sink.traces()


def test_a_direct_get_is_one_trace_across_client_and_worker():
    """The direct route: a shard worker's loop (in a thread here, set up
    as in ``test_service_direct``) parents its span under the client's."""
    db = _open_shield_db("/obs-direct")
    db.put(b"k", b"v")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.setblocking(False)
    frontend_end, worker_end = socket.socketpair()
    shard = ServingLoop(db, worker_end, listener, ServiceConfig())
    thread = threading.Thread(target=shard.serve, daemon=True)
    thread.start()
    try:
        with KVClient(*listener.getsockname()) as client:
            assert client.workers() == []  # a worker is its own endpoint
            with traced() as sink:
                assert client.get(b"k") == b"v"
    finally:
        frontend_end.close()  # EOF on the pipe: the worker loop ends
        thread.join(20.0)
        listener.close()
        worker_end.close()
        db.close()
    assert not thread.is_alive()

    by_name = {span.name: span for span in sink.spans()}
    client_span, worker_span = by_name["client.get"], by_name["server.get"]
    assert list(sink.traces()) == [client_span.trace_id]
    assert client_span.parent_id is None
    assert worker_span.parent_id == client_span.span_id
    assert by_name["db.get"].parent_id == worker_span.span_id


def test_sampled_out_remote_request_writes_nothing():
    db = _open_shield_db()
    with traced(sample_rate=0.0) as sink:
        with KVServer(db, ServiceConfig()) as server:
            with KVClient(*server.address) as client:
                client.put(b"silent", b"value")
                assert client.get(b"silent") == b"value"
        assert len(sink) == 0
    db.close()


def test_op_stats_merges_every_layer():
    kds = InMemoryKDS()
    db = _open_shield_db(kds=kds)
    with KVServer(db, ServiceConfig()) as server:
        host, port = server.address
        with KVClient(host, port) as client:
            for index in range(50):
                client.put(f"k{index:04d}".encode(), b"v" * 128)
            client.flush()
            assert client.get(b"k0000") == b"v" * 128
            stats = client.stats()

            # A replica subscribed mid-run shows up with position and lag.
            with Replica(host, port, server_id="replica-1",
                         key_client=KeyClient(kds, "replica-1")) as replica:
                assert replica.wait_connected(5.0)
                target = client.committed_sequence()
                assert replica.wait_until_caught_up(target, timeout=10.0)
                repl_stats = client.stats()
    db.close()

    for section in ("server", "engine", "crypto", "replication"):
        assert section in stats, f"missing OP_STATS section {section}"
    assert stats["committed_sequence"] >= 50
    # Engine counters and block-cache/tree gauges from DB.stats_snapshot().
    assert "db.block_cache.hits" in stats["engine"]
    assert "db.block_cache.misses" in stats["engine"]
    assert stats["engine"]["db.last_sequence"] >= 50
    # Cipher attribution: SHIELD encrypted the WAL and the flushed SST.
    assert stats["crypto"]["crypto.bytes"] > 0
    assert stats["crypto"]["crypto.context_inits"] > 0
    assert stats["crypto"]["crypto.bulk_s.sum"] > 0
    # The engine's provider exposes its KeyClient: KDS round-trips appear.
    assert "keyclient" in stats
    assert stats["keyclient"]["keyclient.kds_s.count"] > 0

    lag_by_replica = repl_stats["replication"]
    assert "replica-1" in lag_by_replica
    entry = lag_by_replica["replica-1"]
    assert entry["position"] >= target
    assert entry["lag"] >= 0


def test_cost_breakdown_attributes_shield_work():
    stats_env = MeteredEnv(MemEnv())
    db = _open_shield_db(env=stats_env)
    with costs.collect() as breakdown:
        with costs.op_class("update"):
            for index in range(200):
                db.put(f"key-{index:05d}".encode(), b"x" * 256)
        db.flush()  # push the memtable out so reads decrypt SST blocks
        with costs.op_class("read"):
            for index in range(200):
                db.get(f"key-{index:05d}".encode())
    db.close()

    data = breakdown.as_dict()
    # Foreground WAL encryption lands under the writing op class.
    assert data["update"]["encrypt_seconds"] > 0
    assert data["update"]["encrypt_bytes"] > 0
    # The metered env charged append/sync time as io.
    assert data["update"]["io_seconds"] > 0
    assert breakdown.total("encrypt") > 0
    # Reads decrypt SST blocks through the metered env.
    assert data["read"]["io_seconds"] > 0
    assert data["read"]["encrypt_seconds"] > 0
    # Zero-filled core categories keep the JSON shape stable.
    assert "kds_seconds" in data["update"]
    assert "kds_seconds" in data["read"]
