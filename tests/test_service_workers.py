"""Tests for shard-per-core serving: MultiProcessKVServer, the KVClient
that routes over its workers, and KVClient over a list of separate servers.

The forked workers are real processes, so everything here exercises the
actual fork/route/scatter machinery: the factories below run *inside* the
child after the fork (closures are inherited by fork, nothing is pickled).
"""

import os
import select
import signal
import socket
import threading
import time

import pytest

from repro.dist.sharding import shard_for_key
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.errors import (
    AuthorizationError, CorruptionError, InvalidArgumentError, IOError_,
    ServiceError,
)
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.service.client import Endpoint, KVClient
from repro.service.protocol import Message
from repro.service.replica import Replica
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer
from repro.shield import ShieldOptions, open_shield_db


def _mem_factory(**options):
    """Each worker builds a private MemEnv after the fork: shared-nothing."""

    def make_shard(index, path):
        opts = dict(options)
        opts.setdefault("write_buffer_size", 64 * 1024)
        return DB(path, Options(env=MemEnv(), **opts))

    return make_shard


def _local_factory(**options):
    """Durable shards: a respawned worker recovers from its shard dir."""

    def make_shard(index, path):
        env = LocalEnv()
        env.mkdirs(path)
        opts = dict(options)
        opts.setdefault("write_buffer_size", 16 * 1024)
        opts.setdefault("wal_sync_writes", True)
        return DB(path, Options(env=env, **opts))

    return make_shard


def _retrying_client(server, **kwargs):
    """A ``KVClient`` that finds the workers and talks to each itself."""
    kwargs.setdefault("max_retries", 12)
    kwargs.setdefault("backoff_base_s", 0.005)
    kwargs.setdefault("backoff_max_s", 0.1)
    kwargs.setdefault("timeout_s", 5.0)
    return KVClient(*server.address, **kwargs)


# -- basic operation routing -------------------------------------------------


def test_multiprocess_roundtrip_all_operations(tmp_path):
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 3, _mem_factory()) as server:
        assert len(server.worker_pids) == 3
        assert all(server.worker_pids)
        with _retrying_client(server) as client:
            client.ping()
            for i in range(30):
                client.put(b"key-%03d" % i, b"val-%03d" % i)
            for i in range(30):
                assert client.get(b"key-%03d" % i) == b"val-%03d" % i
            assert client.get(b"missing") is None
            client.delete(b"key-000")
            assert client.get(b"key-000") is None

            client.flush()
            client.compact_range()
            assert client.get(b"key-007") == b"val-007"

            health = client.health()
            assert health["state"] == "healthy"
            assert client.committed_sequence() >= 30


def test_merged_stats_shape(tmp_path):
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 3, _mem_factory()) as server:
        with _retrying_client(server) as client:
            for i in range(12):
                client.put(b"s-%d" % i, b"v")
            stats = client.stats()
    assert set(stats["endpoints"]) == {"0", "1", "2"}
    for shard in stats["endpoints"].values():
        assert shard["health"]["state"] == "healthy"
    assert stats["health"]["state"] == "healthy"
    assert stats["committed_sequence"] == sum(
        shard["committed_sequence"] for shard in stats["endpoints"].values()
    )
    # repro-stats reads these sections; the front-end adds per-worker gauges.
    assert "engine" in stats and "crypto" in stats and "server" in stats
    for idx in range(3):
        assert stats["server"][f"service.worker_generation.{idx}"] == 1


def test_scatter_gather_scan_matches_single_db(tmp_path):
    """A cross-shard scan, scattered by the client, must be
    indistinguishable from one engine."""
    reference = DB("/ref", Options(env=MemEnv(), write_buffer_size=64 * 1024))
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 4, _mem_factory()) as server:
        with _retrying_client(server) as client:
            for i in range(80):
                key, value = b"k-%04d" % (i * 7 % 80), b"v-%04d" % i
                client.put(key, value)
                reference.put(key, value)
            for start, end, limit in [
                (b"", None, None),
                (b"", None, 10),
                (b"k-0010", b"k-0060", None),
                (b"k-0010", b"k-0060", 7),
                (b"zzz", None, 5),
            ]:
                assert client.scan(start, end, limit=limit) == reference.scan(
                    start, end, limit=limit
                ), (start, end, limit)
    reference.close()


def test_write_batch_splits_across_shards(tmp_path):
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 3, _mem_factory()) as server:
        with _retrying_client(server) as client:
            batch = WriteBatch()
            for i in range(24):
                batch.put(b"b-%03d" % i, b"v-%03d" % i)
            batch.delete(b"b-003")
            client.write(batch)
            # The batch really fanned out to more than one worker.
            touched = {shard_for_key(b"b-%03d" % i, 3) for i in range(24)}
            assert len(touched) > 1
            for i in range(24):
                expect = None if i == 3 else b"v-%03d" % i
                assert client.get(b"b-%03d" % i) == expect

            empty = WriteBatch()
            client.write(empty)  # no-op, not an error


# -- crash handling ----------------------------------------------------------


def test_worker_crash_is_retriable_and_respawns(tmp_path):
    base = str(tmp_path / "mp")
    server = MultiProcessKVServer(
        base, 2, _local_factory(), ServiceConfig(port=0, drain_timeout_s=2.0)
    )
    server.start()
    try:
        with _retrying_client(server) as client:
            for i in range(30):
                client.put(b"c-%03d" % i, b"v-%03d" % i)
            victim = server.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            # The client sees a reset connection and a reconnect that waits
            # in the shard's listener.  The synced WAL means every acked
            # write survives the kill.
            for i in range(30):
                assert client.get(b"c-%03d" % i) == b"v-%03d" % i
            client.put(b"after-crash", b"ok")
            assert client.get(b"after-crash") == b"ok"

            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(server.worker_pids):
                    break
                time.sleep(0.02)
            assert all(server.worker_pids)
            assert server.worker_pids[0] != victim

            # The front-end's own counters, summed into the shards' merge.
            stats = client.stats()
            assert stats["server"]["service.worker_crashes"] >= 1
            assert stats["server"]["service.worker_respawns"] >= 1
            assert stats["server"]["service.worker_generation.0"] >= 2
            assert set(stats["endpoints"]) == {"0", "1"}
    finally:
        server.stop()


def test_a_workers_replica_reads_every_acked_write_across_its_killing(tmp_path):
    """A replica subscribed to one shard worker's own port: SIGKILL that
    worker mid-load, and the replica reconnects to its respawn (same port)
    and reads back every acked write of the shard.  The shards are
    plaintext: an encrypted shard's replica needs the KDS the workers use,
    and a forked ``InMemoryKDS`` is a copy (DESIGN.md §10)."""
    index, shards = 1, 2
    config = ServiceConfig(port=0, drain_timeout_s=2.0)
    with MultiProcessKVServer(
        str(tmp_path / "mp"), shards, _local_factory(), config
    ) as server, _retrying_client(server) as client, Replica(
        *server.worker_addresses[index], server_id="shard-replica",
        reconnect_backoff_s=0.01,
    ) as replica:
        assert replica.wait_connected(10.0)
        acked = {}
        for i in range(80):
            if i == 40:
                victim = server.worker_pids[index]
                os.kill(victim, signal.SIGKILL)
            key = b"r-%03d" % i
            client.put(key, b"v-%03d" % i)
            acked[key] = b"v-%03d" % i
        assert _eventually(lambda: server.worker_pids[index] not in (victim, None))
        shard = {k: v for k, v in acked.items() if shard_for_key(k, shards) == index}
        assert len(shard) >= 20
        committed = client.stats()["endpoints"][str(index)]["committed_sequence"]
        assert replica.wait_until_caught_up(committed, 20.0)
        assert {key: replica.get(key) for key in shard} == shard
        assert replica.subscriptions >= 2  # it followed the respawn
        assert replica.scan() == sorted(shard.items())


def test_graceful_stop_reaps_every_worker(tmp_path):
    base = str(tmp_path / "mp")
    server = MultiProcessKVServer(base, 2, _mem_factory())
    server.start()
    pids = list(server.worker_pids)
    assert all(pids)
    server.stop()
    assert server.worker_pids == [None, None]
    for pid in pids:  # reaped: not our children any more, no zombies
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- placement ---------------------------------------------------------------


def _eventually(predicate, timeout_s=5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here"
)
def test_worker_placement_one_cpu_each_kept_across_a_respawn(tmp_path):
    """Worker i sits on CPU i mod n of the front-end's CPUs, and its
    respawn on the same one; a front-end confined to one CPU puts every
    worker there.  (A worker pins itself right after the fork, so its
    placement is read until it shows.)"""
    cpus = sorted(os.sched_getaffinity(0))
    expected = [{cpus[index % len(cpus)]} for index in range(3)]

    def placement(server):
        pids = server.worker_pids
        return None not in pids and [os.sched_getaffinity(p) for p in pids]

    config = ServiceConfig(port=0, drain_timeout_s=2.0)
    with MultiProcessKVServer(
        str(tmp_path / "mp"), 3, _mem_factory(), config
    ) as server:
        assert _eventually(lambda: placement(server) == expected), (
            placement(server), expected
        )
        victim = server.worker_pids[1]
        os.kill(victim, signal.SIGKILL)
        assert _eventually(lambda: server.worker_pids[1] not in (victim, None))
        assert _eventually(lambda: placement(server) == expected), (
            placement(server), expected
        )

    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpus[-1]})
    try:
        confined = MultiProcessKVServer(
            str(tmp_path / "confined"), 3, _mem_factory(), config
        ).start()
    finally:
        os.sched_setaffinity(0, original)
    with confined:
        assert _eventually(
            lambda: placement(confined) == [{cpus[-1]}] * 3
        ), placement(confined)


# -- auth and protocol edges -------------------------------------------------


def test_require_auth_gates_operations(tmp_path):
    kds = SimulatedKDS(request_latency_s=0.0)
    kds.authorize_server("good-client")
    config = ServiceConfig(port=0, require_auth=True, kds=kds)
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 2, _mem_factory(), config) as server:
        with pytest.raises(AuthorizationError):
            KVClient(*server.address, server_id="impostor",
                     max_retries=0).ping()
        with KVClient(*server.address, server_id="good-client") as client:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
        # No AUTH at all is also rejected for non-AUTH ops.
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            protocol.send_message(sock, Message(
                protocol.OP_GET, 1, protocol.encode_key(b"k")
            ))
            reply = protocol.FrameReader(sock).read()
            assert reply.opcode == protocol.RESP_ERROR
        finally:
            sock.close()


def test_replication_subscribe_is_rejected(tmp_path):
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 2, _mem_factory()) as server:
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            protocol.send_message(sock, Message(
                protocol.OP_REPL_SUBSCRIBE, 1,
                protocol.encode_repl_subscribe("replica-1", 0),
            ))
            resp = protocol.FrameReader(sock).read()
            assert resp.opcode == protocol.RESP_ERROR
            with pytest.raises(Exception, match="per-shard"):
                raise protocol.decode_error(resp.payload)
        finally:
            sock.close()


#: Every request the front-end refuses, one of each known data opcode.
DATA_REQUESTS = [
    (protocol.OP_GET, protocol.encode_key(b"k")),
    (protocol.OP_PUT, protocol.encode_put(b"k", b"v")),
    (protocol.OP_DELETE, protocol.encode_key(b"k")),
    (protocol.OP_WRITE_BATCH, WriteBatch().put(b"k", b"v").serialize(0)),
    (protocol.OP_SCAN, protocol.encode_scan(b"", None, None)),
    (protocol.OP_FLUSH, b""),
    (protocol.OP_COMPACT, b""),
    (protocol.OP_HEALTH, b""),
]


def _worker_op_counts(server) -> list[dict]:
    """Each worker's own ``service.<op>`` counters, asked on its port."""
    names = {f"service.{name}" for name in protocol.OPCODE_NAMES.values()}
    counts = []
    for address in server.worker_addresses:
        with KVClient.over([address]) as worker:  # asks no topology
            server_section = worker.stats()["server"]
        counts.append({k: v for k, v in server_section.items() if k in names})
    return counts


def test_the_front_end_refuses_every_data_opcode(tmp_path):
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_factory()) as server:
        before = _worker_op_counts(server)
        with socket.create_connection(server.address, timeout=5.0) as sock:
            reader = protocol.FrameReader(sock)
            for rid, (opcode, payload) in enumerate(DATA_REQUESTS, start=1):
                protocol.send_message(sock, Message(opcode, rid, payload))
                reply = reader.read()
                assert (reply.opcode, reply.request_id) == (
                    protocol.RESP_ERROR, rid
                )
                error = protocol.decode_error(reply.payload)
                assert isinstance(error, InvalidArgumentError), error
                assert "OP_TOPOLOGY" in str(error), error
            protocol.send_message(sock, Message(protocol.OP_PING, 99))
            assert reader.read().opcode == protocol.RESP_OK  # still served
        after = _worker_op_counts(server)
    # Each worker's only new op is the STATS that read its counters.
    for was, now in zip(before, after):
        assert now == {**was, "service.stats": was["service.stats"] + 1}


def test_a_pipeline_puts_each_op_on_its_owners_port(tmp_path):
    keys = [b"pk-%03d" % i for i in range(40)]
    with MultiProcessKVServer(str(tmp_path / "mp"), 2, _mem_factory()) as server:
        with _retrying_client(server) as client:
            pipe = client.pipeline(max_inflight=8)
            for key in keys:
                pipe.put(key, b"v-" + key)
            for key in keys:
                pipe.get(key)
            pipe.scan(b"pk-", None, 5)
            results = pipe.execute()
        assert results[:40] == [None] * 40
        assert results[40:80] == [b"v-" + key for key in keys]
        assert results[80] == [(key, b"v-" + key) for key in keys[:5]]
        counts = _worker_op_counts(server)
        frontend = server.stats.snapshot()
    for shard, count in enumerate(counts):
        owned = sum(shard_for_key(key, 2) == shard for key in keys)
        assert (count["service.put"], count["service.get"]) == (owned, owned)
        assert count["service.scan"] == 1  # every shard's part of the scan
    ops = {f"service.{name}" for name in protocol.OPCODE_NAMES.values()}
    assert sorted(set(frontend) & ops) == ["service.topology"]


def test_frame_splitter_reassembles_split_frames():
    messages = [
        Message(protocol.OP_PING, 1),
        Message(protocol.OP_PUT, 300, protocol.encode_put(b"k", b"v" * 40),
                trace=b"\x07" * 17),
        Message(protocol.RESP_VALUE, 2**40, protocol.encode_value(b"")),
    ]
    stream = b"".join(protocol.encode_frame(msg) for msg in messages)
    splitter = protocol.FrameSplitter()
    seen = []
    for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
        splitter.feed(stream[i:i + 3])
        for frame in splitter.frames():
            frame.verify()
            # The lazily parsed header agrees with the full decode.
            assert frame.message() == protocol.decode_frame_body(frame.raw[4:])
            assert (frame.opcode, frame.request_id) == (
                frame.message().opcode, frame.message().request_id
            )
            seen.append(frame.message())
    assert seen == messages


@pytest.mark.parametrize("stream, complaint", [
    (b"\x03\x00\x00\x00" + b"\x00" * 3, "implausible frame length"),
    (b"\xff\xff\xff\xff", "implausible frame length"),
    # Length 4: a CRC and nothing else -- no opcode byte.
    (b"\x04\x00\x00\x00" + b"\x00" * 4, "truncated frame header"),
    # Length 5: an opcode but no request id.
    (b"\x05\x00\x00\x00" + b"\x00" * 4 + b"\x01", "truncated frame header"),
    # A traced opcode whose trace header runs past the frame.
    (b"\x07\x00\x00\x00" + b"\x00" * 4 + b"\x41\x01\x09",
     "truncated frame header"),
])
def test_frame_splitter_rejects_malformed_frames(stream, complaint):
    splitter = protocol.FrameSplitter()
    splitter.feed(stream)
    with pytest.raises(protocol.ProtocolError, match=complaint):
        list(splitter.frames())


def test_front_end_survives_a_frame_with_a_truncated_header(tmp_path):
    """A 9-byte frame (opcode, no request id) used to escape the
    front-end's ProtocolError handling and end its event loop."""
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 2, _mem_factory()) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"\x05\x00\x00\x00" + b"\x00" * 4 + b"\x01")
            assert sock.recv(16) == b""  # dropped, not answered
        with _retrying_client(server) as client:
            client.ping()


def test_a_degraded_write_is_counted_at_the_workers_edge(tmp_path):
    """A write the engine refuses while degraded answers the retriable
    DEGRADED on the worker's own port, and that worker counts it."""

    def degraded_factory(index, path):
        db = DB(path, Options(env=MemEnv()))

        class _DegradedDB:
            def put(self, key, value, opts=None):
                raise IOError_("disk blip")

            def health(self):
                return {"state": "degraded", "reason": "kds-unavailable",
                        "error": None}

            def __getattr__(self, name):
                return getattr(db, name)

        return _DegradedDB()

    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 2, degraded_factory) as server:
        address = server.worker_addresses[shard_for_key(b"k", 2)]
        with socket.create_connection(address, timeout=5.0) as sock:
            protocol.send_message(sock, Message(
                protocol.OP_PUT, 1, protocol.encode_put(b"k", b"v")
            ))
            reply = protocol.FrameReader(sock).read()
        assert reply.opcode == protocol.RESP_DEGRADED
        assert protocol.decode_health(reply.payload)["state"] == "degraded"
        with _retrying_client(server) as client:
            stats = client.stats()
        assert stats["server"]["service.degraded_rejections"] == 1
        assert stats["health"]["state"] == "degraded"


def test_worker_health_loop_counters_reach_the_front_end_stats(tmp_path):
    """Each worker runs its own health loop; what it counts is summed into
    the front-end's ``server`` section like any other worker counter."""

    def flaky_probe_factory(index, path):
        db = DB(path, Options(env=MemEnv()))

        class _FlakyProbeDB:
            def health(self):
                if threading.current_thread().name == "shard-health":
                    raise RuntimeError("probe blew up")
                return db.health()

            def __getattr__(self, name):
                return getattr(db, name)

        return _FlakyProbeDB()

    config = ServiceConfig(port=0, health_check_interval_s=0.01)
    base = str(tmp_path / "mp")
    with MultiProcessKVServer(base, 2, flaky_probe_factory, config) as server:
        with _retrying_client(server) as client:
            deadline = time.monotonic() + 10.0
            while True:
                stats = client.stats()
                if stats["server"].get("service.health_check_errors", 0) >= 2:
                    break
                assert time.monotonic() < deadline, stats["server"]
                time.sleep(0.01)
        assert "service.health" not in stats["server"]
        assert stats["server"]["service.stats"] >= 1  # the front-end's own
        assert stats["health"]["state"] == "healthy"


def test_a_gathers_error_is_the_lowest_shards_not_the_first_to_arrive(
    tmp_path, monkeypatch
):
    """Two shards fail one COMPACT differently and shard 1 answers first:
    the client raises shard 0's error -- it settles the parts in shard
    order -- not whichever part arrived first."""
    gate_r, gate_w = os.pipe()  # inherited by both forked workers
    sent = []
    begin, finish = Endpoint.begin, Endpoint.finish

    def recording_begin(self, *args):
        sent.append(begin(self, *args))
        return sent[-1]

    def finish_after_shard_1(self, part):
        if part is sent[0]:  # shard 0's part: let it go once shard 1's is in
            conn = sent[1][0]
            assert select.select([conn.sock], [], [], 20)[0]
            os.write(gate_w, b"g")
        return finish(self, part)

    def failing_factory(index, path):
        db = DB(path, Options(env=MemEnv()))

        class _FailingDB:
            def compact_range(self):
                if index == 0:
                    os.read(gate_r, 1)  # held until shard 1's part is in
                    raise InvalidArgumentError("shard 0 refuses")
                raise CorruptionError("shard 1 is damaged")

            def __getattr__(self, name):
                return getattr(db, name)

        return _FailingDB()

    base = str(tmp_path / "mp")
    try:
        with MultiProcessKVServer(base, 2, failing_factory) as server, \
                KVClient(*server.address, timeout_s=20, max_retries=0) as client:
            client.workers()
            monkeypatch.setattr(Endpoint, "begin", recording_begin)
            monkeypatch.setattr(Endpoint, "finish", finish_after_shard_1)
            with pytest.raises(InvalidArgumentError, match="shard 0 refuses"):
                client.compact_range()
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert len(sent) == 2


# -- encrypted shards --------------------------------------------------------


def test_shield_multiprocess_smoke(tmp_path):
    kds = InMemoryKDS()

    def make_shard(index, path):
        env = LocalEnv()
        env.mkdirs(path)
        shield = ShieldOptions(kds=kds, server_id=f"test-shard-{index}")
        return open_shield_db(
            path, shield, Options(env=env, write_buffer_size=16 * 1024)
        )

    base = str(tmp_path / "mp-shield")
    with MultiProcessKVServer(base, 2, make_shard) as server:
        with _retrying_client(server) as client:
            for i in range(20):
                client.put(b"enc-%02d" % i, b"secret-%02d" % i)
            client.flush()
            for i in range(20):
                assert client.get(b"enc-%02d" % i) == b"secret-%02d" % i
            stats = client.stats()
            assert stats["crypto"].get("crypto.bytes", 0) > 0
            assert stats["health"]["state"] == "healthy"


# -- KVClient over a list of servers -----------------------------------------


def _start_servers(n):
    """n independent single-shard KVServers (client-side sharding)."""
    backends = []
    for i in range(n):
        db = DB(f"/cskv-{i}", Options(env=MemEnv(), write_buffer_size=64 * 1024))
        server = KVServer(db, ServiceConfig(port=0))
        server.start()
        backends.append((db, server))
    return backends


def _stop_servers(backends):
    for db, server in backends:
        server.stop()
        db.close()


def test_sharded_client_fixed_routing():
    backends = _start_servers(3)
    try:
        endpoints = [server.address for _, server in backends]
        with KVClient.over(endpoints) as client:
            assert len(client.workers()) == 3
            for i in range(40):
                client.put(b"f-%03d" % i, b"v-%03d" % i)
            for i in range(40):
                assert client.get(b"f-%03d" % i) == b"v-%03d" % i
            client.delete(b"f-000")
            assert client.get(b"f-000") is None

            # Keys really land on the shard shard_for_key names.
            for i in range(40):
                key = b"f-%03d" % i
                home = shard_for_key(key, 3)
                expect = None if i == 0 else b"v-%03d" % i
                assert backends[home][0].get(key) == expect

            pairs = client.scan(b"f-", b"f-\xff", limit=10)
            assert pairs == [
                (b"f-%03d" % i, b"v-%03d" % i) for i in range(1, 11)
            ]

            batch = WriteBatch()
            for i in range(12):
                batch.put(b"fb-%02d" % i, b"w")
            client.write(batch)
            assert all(client.get(b"fb-%02d" % i) == b"w" for i in range(12))

            stats = client.stats()
            assert set(stats["endpoints"]) == {"0", "1", "2"}
            assert client.health()["state"] == "healthy"
            client.flush()
            client.compact_range()
            client.ping()
            assert client.committed_sequence() == sum(
                ep["committed_sequence"] for ep in stats["endpoints"].values()
            )  # flush/compact commit nothing after the stats snapshot
    finally:
        _stop_servers(backends)


def test_sharded_client_rejects_bad_configurations():
    with pytest.raises(ServiceError):
        KVClient.over([])


def test_flush_and_compact_over_a_list_reach_every_server():
    backends = _start_servers(2)
    try:
        with KVClient.over([server.address for _, server in backends]) as client:
            client.flush()
            client.compact_range()
        for _, server in backends:
            counters = server.stats.snapshot()
            assert counters["service.flush"] == counters["service.compact"] == 1
    finally:
        _stop_servers(backends)


def test_a_client_over_a_list_pipelines():
    backends = _start_servers(2)
    try:
        with KVClient.over([server.address for _, server in backends]) as client:
            pipe = client.pipeline(max_inflight=4)
            for i in range(20):
                pipe.put(b"p-%02d" % i, b"v-%02d" % i)
            pipe.delete(b"p-00").get(b"p-00").get(b"p-07").scan(b"p-", None, 3)
            results = pipe.execute()
        assert results[:21] == [None] * 21
        assert results[21:] == [None, b"v-07", [
            (b"p-01", b"v-01"), (b"p-02", b"v-02"), (b"p-03", b"v-03"),
        ]]
        for i in range(1, 20):  # each put on the shard that owns its key
            key = b"p-%02d" % i
            assert backends[shard_for_key(key, 2)][0].get(key) == b"v-%02d" % i
            assert backends[1 - shard_for_key(key, 2)][0].get(key) is None
        for __, server in backends:
            assert server.stats.snapshot()["service.scan"] == 1  # scattered
    finally:
        _stop_servers(backends)


def test_a_client_over_a_list_has_no_default_endpoint():
    with KVClient.over([("127.0.0.1", 1), ("127.0.0.1", 2)]) as client:
        assert client.home is None
        with pytest.raises(ServiceError):
            client.request(protocol.OP_PING)  # nothing is sent: no port 1
