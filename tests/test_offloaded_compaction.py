"""End-to-end offloaded compaction with SHIELD: the Section 5.6 case study.

The compaction worker is a different server.  It must (1) learn each input
file's DEK from the envelope metadata, (2) fetch those DEKs from the KDS
under its own identity, (3) provision fresh DEKs for its outputs, and
(4) leave the compute-side DB able to read everything afterwards.
"""

import itertools

import pytest

from repro.dist.deployment import build_ds_deployment
from repro.dist.network import NetworkConfig
from repro.keys.cache import SecureDEKCache
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.compaction import CompactionJob, MergeExecutor
from repro.lsm.db import DB
from repro.lsm.dbformat import TYPE_DELETE
from repro.lsm.filename import sst_path
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import VirtualClock
from tests.test_iterator import merge_entries, newest_visible


def _engine_options(**overrides):
    defaults = dict(
        write_buffer_size=4 * 1024,
        block_size=1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_size=8 * 1024,
        level0_file_num_compaction_trigger=2,
    )
    defaults.update(overrides)
    return Options(**defaults)


def test_offloaded_compaction_plaintext():
    deployment = build_ds_deployment(clock=VirtualClock())
    options = deployment.db_options(_engine_options())
    options.compaction_service = deployment.compaction_service(options=options)
    with DB("/db", options) as db:
        for i in range(3000):
            db.put(b"key-%05d" % (i % 600), b"v" * 50)
        db.compact_range()
        service = options.compaction_service
        assert service.stats.counter("service.jobs").value > 0
        assert service.stats.counter("service.bytes_written").value > 0
        for i in range(600):
            assert db.get(b"key-%05d" % i) == b"v" * 50


@pytest.mark.parametrize("bottommost", [False, True])
def test_local_and_offloaded_merges_write_the_same_entries(bottommost):
    """One job, merged by the DB itself and by the worker: same entries in
    the same output files, and both equal the entry-at-a-time reference
    (merge, newest version per key, tombstones kept unless bottommost)."""
    deployment = build_ds_deployment(clock=VirtualClock())
    options = deployment.db_options(_engine_options(
        level0_file_num_compaction_trigger=100,  # no compaction of its own
        level0_slowdown_writes_trigger=100,
        level0_stop_writes_trigger=100,
    ))
    options.compaction_service = deployment.compaction_service(options=options)
    with DB("/db", options) as db:
        for run in range(3):  # overlapping runs: overwrites and deletes
            for i in range(run, 240, run + 1):
                db.put(b"key-%04d" % i, b"run-%d-%04d" % (run, i) * 3)
            for i in range(run * 5, 260, 11):
                db.delete(b"key-%04d" % i)
            db.flush()
        inputs = [meta for level, meta in db.live_files() if level == 0]
        assert len(inputs) >= 3

        def read(numbers):
            return [
                list(SSTReader(
                    options.env, sst_path("/db", number), db.provider, options,
                ).entries())
                for number in numbers
            ]

        # One job through each holder of the one executor body: the kind the
        # DB runs itself, and the worker on the storage side of the link.
        job = CompactionJob(
            inputs={0: inputs}, output_level=1, bottommost=bottommost
        )
        numbers = itertools.count(1000)
        local, offloaded = (
            read(number for number, __ in executor.merge(
                "/db", job, options.target_file_size, lambda: next(numbers)
            ))
            for executor in (
                MergeExecutor(options.env, db.provider, options),
                options.compaction_service,
            )
        )

        assert len(local) > 1  # outputs split at target_file_size
        assert local == offloaded
        merged = [entry for output in local for entry in output]
        assert merged == list(newest_visible(
            merge_entries(read(meta.number for meta in inputs)),
            keep_tombstones=not bottommost,
        ))
        has_tombstones = any(vtype == TYPE_DELETE for __, ___, vtype, ____ in merged)
        assert has_tombstones != bottommost


def test_offloaded_compaction_data_stays_off_the_link():
    deployment = build_ds_deployment(clock=VirtualClock())
    options = deployment.db_options(_engine_options())
    options.compaction_service = deployment.compaction_service(options=options)
    with DB("/db", options) as db:
        for i in range(3000):  # every key once, each flush over the whole range
            db.put(b"key-%05d" % (i * 7 % 3000), b"v" * 50)
        db.compact_range()
    service_read = options.compaction_service.stats.counter(
        "service.bytes_read"
    ).value
    assert service_read > 0
    # The compute link carried flushes but NOT the compaction reads: compute
    # received-bytes stay near zero (only envelope/footer probes from gets).
    assert deployment.link.bytes_received < service_read / 4


def test_offloaded_compaction_shield_dek_sharing():
    clock = VirtualClock()
    deployment = build_ds_deployment(clock=clock)
    kds = SimulatedKDS(clock=clock, request_latency_s=0.001)
    kds.authorize_server("compute-1")
    kds.authorize_server("compaction-1")

    compute_shield = ShieldOptions(kds=kds, server_id="compute-1")
    engine = deployment.db_options(_engine_options())
    worker_shield = ShieldOptions(kds=kds, server_id="compaction-1")
    worker_provider = worker_shield.build_provider()
    engine.compaction_service = deployment.compaction_service(
        provider=worker_provider, options=_engine_options()
    )
    db = open_shield_db("/db", compute_shield, engine)
    with db:
        for i in range(3000):
            db.put(b"key-%05d" % (i % 600), b"secret-%05d" % i)
        db.compact_range()
        # The worker resolved input DEKs through the KDS under its identity.
        worker_client = worker_provider.key_client
        assert worker_client.stats.counter("keyclient.kds_fetches").value > 0
        # The worker provisioned fresh DEKs for its outputs.
        assert worker_provider.deks_provisioned > 0
        # The compute DB reads the worker's outputs fine (its own KDS fetch).
        for i in range(0, 600, 37):
            assert db.get(b"key-%05d" % i) is not None
        # Nothing plaintext hit storage.
        for name in deployment.storage.env.list_dir("/db"):
            if name == "CURRENT":
                continue
            assert b"secret-" not in deployment.storage.env.read_file(f"/db/{name}")


def test_offloaded_worker_unauthorized_fails():
    clock = VirtualClock()
    deployment = build_ds_deployment(clock=clock)
    kds = SimulatedKDS(clock=clock)
    kds.authorize_server("compute-1")  # the worker is NOT authorized

    compute_shield = ShieldOptions(kds=kds, server_id="compute-1")
    engine = deployment.db_options(_engine_options())
    rogue_shield = ShieldOptions(kds=kds, server_id="rogue-worker")
    engine.compaction_service = deployment.compaction_service(
        provider=rogue_shield.build_provider(), options=_engine_options()
    )
    db = open_shield_db("/db", compute_shield, engine)
    from repro.errors import IOError_

    with pytest.raises(IOError_):
        for i in range(3000):  # every key once, each flush over the whole range
            db.put(b"key-%05d" % (i * 7 % 3000), b"v" * 50)
        db.compact_range()
    db.simulate_crash()


def test_offloaded_worker_uses_secure_cache(tmp_path):
    clock = VirtualClock()
    deployment = build_ds_deployment(clock=clock)
    kds = SimulatedKDS(clock=clock, request_latency_s=0.01)
    kds.authorize_server("compute-1")
    kds.authorize_server("compaction-1")
    worker_cache = SecureDEKCache(str(tmp_path / "worker-cache"), "pw", iterations=10)

    compute_shield = ShieldOptions(kds=kds, server_id="compute-1")
    engine = deployment.db_options(_engine_options())
    worker_shield = ShieldOptions(
        kds=kds, server_id="compaction-1", dek_cache=worker_cache
    )
    worker_provider = worker_shield.build_provider()
    engine.compaction_service = deployment.compaction_service(
        provider=worker_provider, options=_engine_options()
    )
    db = open_shield_db("/db", compute_shield, engine)
    with db:
        for i in range(3000):  # every key once, each flush over the whole range
            db.put(b"key-%05d" % (i * 7 % 3000), b"v" * 50)
        db.compact_range()
        # Output DEKs the worker provisioned got cached securely on disk.
        assert len(worker_cache) > 0


def test_readonly_instance_shares_files():
    from repro.dist.readonly import ReadOnlyInstance

    deployment = build_ds_deployment(clock=VirtualClock())
    kds = InMemoryKDS()
    engine = deployment.db_options(_engine_options())
    shield = ShieldOptions(kds=kds, server_id="primary", wal_buffer_size=0)
    db = open_shield_db("/db", shield, engine)
    for i in range(500):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    db.put(b"wal-only", b"fresh")  # lives in the WAL, not yet flushed

    reader_shield = ShieldOptions(kds=kds, server_id="reader-1")
    ro_options = deployment.db_options(_engine_options())
    readonly = ReadOnlyInstance(
        "/db", ro_options, provider=reader_shield.build_provider()
    )
    with readonly:
        assert readonly.get(b"key-0123") == b"value-0123"
        assert readonly.get(b"wal-only") == b"fresh"
        assert readonly.get(b"missing") is None
        scanned = readonly.scan(b"key-0000", b"key-0010")
        assert len(scanned) == 10
    db.close()


def test_readonly_refresh_sees_new_data():
    from repro.dist.readonly import ReadOnlyInstance

    deployment = build_ds_deployment(clock=VirtualClock())
    engine = deployment.db_options(_engine_options())
    db = DB("/db", engine)
    db.put(b"first", b"1")
    db.flush()
    ro_options = deployment.db_options(_engine_options())
    readonly = ReadOnlyInstance("/db", ro_options)
    assert readonly.get(b"first") == b"1"
    db.put(b"second", b"2")
    db.flush()
    assert readonly.get(b"second") is None  # stale view
    readonly.refresh()
    assert readonly.get(b"second") == b"2"
    readonly.close()
    db.close()


def test_readonly_instance_over_no_store_raises():
    """A wrong path, or a store whose CURRENT is gone, is an error -- never
    an empty store served as if it were the data."""
    from repro.dist.readonly import ReadOnlyInstance
    from repro.env.mem import MemEnv
    from repro.errors import ReproError

    env = MemEnv()
    env.mkdirs("/nothing-here")
    with pytest.raises(ReproError):
        ReadOnlyInstance("/nothing-here", Options(env=env))
