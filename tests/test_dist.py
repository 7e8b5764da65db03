"""Tests for the disaggregated-storage substrate: link, remote env, tiered
env, and the deployment builder."""

import threading

import pytest

from repro.dist.network import NetworkConfig, NetworkLink
from repro.dist.remote_env import RemoteEnv, StorageServer, TieredEnv
from repro.dist.deployment import build_ds_deployment
from repro.dist.readonly import ReadOnlyInstance
from repro.env.mem import MemEnv
from repro.errors import ReproError
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.util.clock import VirtualClock


def test_network_link_accounting():
    clock = VirtualClock()
    link = NetworkLink(NetworkConfig(rtt_s=0.001, bandwidth_bytes_per_s=1000), clock)
    link.send(500)
    link.receive(1500)
    link.ping()
    assert link.bytes_sent == 500
    assert link.bytes_received == 1500
    assert link.round_trips == 3
    assert link.total_bytes() == 2000
    # 3 RTTs + 2000 bytes / 1000 B/s.
    assert clock.now() == pytest.approx(0.003 + 2.0)


def test_network_zero_bandwidth_means_unlimited():
    clock = VirtualClock()
    link = NetworkLink(NetworkConfig(rtt_s=0.0, bandwidth_bytes_per_s=0), clock)
    link.send(10 ** 9)
    assert clock.now() == 0.0


def test_remote_env_roundtrip():
    clock = VirtualClock()
    storage = StorageServer()
    link = NetworkLink(NetworkConfig(rtt_s=0.001), clock)
    remote = RemoteEnv(storage, link)
    remote.write_file("/data/f.sst", b"remote bytes")
    assert remote.read_file("/data/f.sst") == b"remote bytes"
    # The bytes physically live on the storage server.
    assert storage.env.read_file("/data/f.sst") == b"remote bytes"
    assert link.bytes_sent == 12
    assert link.bytes_received == 12
    assert clock.now() > 0


def test_remote_env_metadata_ops_ping():
    clock = VirtualClock()
    storage = StorageServer()
    link = NetworkLink(NetworkConfig(rtt_s=0.001), clock)
    remote = RemoteEnv(storage, link)
    remote.write_file("/a", b"x")
    trips_before = link.round_trips
    remote.rename_file("/a", "/b")
    assert remote.file_exists("/b")
    remote.file_size("/b")
    remote.list_dir("/")
    remote.delete_file("/b")
    assert link.round_trips == trips_before + 5


def test_tiered_env_routes_wal_local():
    local, storage = MemEnv(), StorageServer()
    link = NetworkLink(NetworkConfig(rtt_s=0.0), VirtualClock())
    remote = RemoteEnv(storage, link)
    tiered = TieredEnv(local, remote)
    tiered.write_file("/db/000001.log", b"wal-bytes")
    tiered.write_file("/db/000002.sst", b"sst-bytes")
    assert local.file_exists("/db/000001.log")
    assert not storage.env.file_exists("/db/000001.log")
    assert storage.env.file_exists("/db/000002.sst")
    assert link.bytes_sent == 9  # only the SST crossed the network
    assert set(tiered.list_dir("/db")) == {"000001.log", "000002.sst"}


def test_db_runs_on_remote_storage():
    deployment = build_ds_deployment(clock=VirtualClock())
    options = deployment.db_options(
        Options(write_buffer_size=4 * 1024, block_size=1024)
    )
    with DB("/db", options) as db:
        for i in range(300):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        for i in range(0, 300, 29):
            assert db.get(b"key-%04d" % i) == b"value-%04d" % i
    assert deployment.link.bytes_sent > 0
    assert deployment.link.bytes_received > 0
    # All SST bytes live on the storage server.
    assert any(
        name.endswith(".sst") for name in deployment.storage.env.list_dir("/db")
    )


def test_db_on_tiered_storage_keeps_wal_local():
    deployment = build_ds_deployment(clock=VirtualClock())
    local = MemEnv()
    options = deployment.db_options(
        Options(write_buffer_size=64 * 1024), tiered_wal=True, local_env=local
    )
    with DB("/db", options) as db:
        db.put(b"k", b"v")
        wal_names = [n for n in local.list_dir("/db") if n.endswith(".log")]
        assert wal_names  # WAL on the compute server's local disk
        remote_wals = [
            n for n in deployment.storage.env.list_dir("/db") if n.endswith(".log")
        ]
        assert not remote_wals


def test_compute_io_metering():
    deployment = build_ds_deployment(clock=VirtualClock())
    options = deployment.db_options(Options(write_buffer_size=4 * 1024))
    with DB("/db", options) as db:
        for i in range(200):
            db.put(b"key-%04d" % i, b"x" * 50)
        db.flush()
    assert deployment.compute_io.written_bytes("sst") > 0
    assert deployment.compute_io.written_bytes("wal") > 0
    # No offloaded compaction ran: the service meter is untouched.
    assert deployment.service_io.written_bytes() == 0


def test_a_readonly_instance_refreshes_beside_a_live_writer():
    """The writer's flushes drop and delete WALs all the while: a reader
    whose MANIFEST still named one re-reads, it never fails on the race."""
    env = MemEnv()
    db = DB("/rw", Options(env=env, write_buffer_size=4096))
    done, errors, refreshes = threading.Event(), [], 0

    def write():
        try:
            for i in range(6000):
                db.put(b"key-%05d" % (i % 700), b"x" * 100)
        finally:
            done.set()

    writer = threading.Thread(target=write)
    writer.start()
    with ReadOnlyInstance("/rw", Options(env=env)) as reader:
        while not done.is_set():
            try:
                reader.refresh()
            except ReproError as exc:
                errors.append(exc)
            refreshes += 1
    writer.join()
    db.close()
    assert refreshes > 20 and errors == []
