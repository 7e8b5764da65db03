"""Tests for the SHIELD design: per-file DEKs, rotation, WAL buffer,
secure-cache wiring, and the ablation flags."""

import pytest

from repro.env.mem import MemEnv
from repro.errors import IOError_
from repro.keys.cache import SecureDEKCache
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import (
    DB,
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_HEALTHY,
    SP_FLUSH_BEFORE_SST,
)
from repro.lsm.envelope import MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.options import Options
from repro.shield import (
    ShieldOptions,
    dek_inventory,
    open_shield_db,
    rotation_report,
)
from repro.util.clock import VirtualClock
from repro.util.syncpoint import SYNC


def _base_options(env=None, **overrides):
    defaults = dict(
        env=env or MemEnv(),
        write_buffer_size=4 * 1024,
        block_size=1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_size=8 * 1024,
        level0_file_num_compaction_trigger=2,
    )
    defaults.update(overrides)
    return Options(**defaults)


#: Tests of what lands on storage run under the stream cipher and its AEAD.
SCHEMES = ("shake-ctr", "shake-etm")


def _shield(kds=None, **overrides) -> ShieldOptions:
    return ShieldOptions(kds=kds or InMemoryKDS(), **overrides)


def test_basic_crud_under_shield():
    db = open_shield_db("/db", _shield(), _base_options())
    with db:
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"
        db.delete(b"k")
        assert db.get(b"k") is None


def test_open_shield_db_keeps_the_base_options_compaction_encryption():
    """The chunk size and thread count of compaction encryption are engine
    options: SHIELD has no second copy of them to write over the caller's."""
    base = _base_options(encryption_chunk_size=4096, encryption_threads=2)
    with open_shield_db("/db", _shield(wal_buffer_size=0), base) as db:
        assert (db.options.encryption_chunk_size, db.options.encryption_threads) == (
            4096, 2
        )
        assert db.options.wal_buffer_size == 0  # the one setting SHIELD carries
    assert base.encryption_chunk_size == 4096 and base.crypto_provider is None


def test_no_plaintext_on_storage():
    for scheme in SCHEMES:
        env = MemEnv()
        db = open_shield_db("/db", _shield(scheme=scheme), _base_options(env=env))
        with db:
            for i in range(400):
                db.put(b"customer-%04d" % i, b"SSN-SECRET-%04d" % i)
            db.flush()
            for name in env.list_dir("/db"):
                if name == "CURRENT":
                    continue  # only names a manifest; holds no user data
                raw = env.read_file(f"/db/{name}")
                assert b"SSN-SECRET" not in raw
                assert b"customer-0001" not in raw


def test_unique_dek_per_file():
    for scheme in SCHEMES:
        kds = InMemoryKDS()
        db = open_shield_db("/db", _shield(kds, scheme=scheme), _base_options())
        with db:
            for i in range(3000):
                db.put(b"key-%05d" % i, b"v" * 50)
            db.flush()
            inventory = dek_inventory(db)
            assert len(inventory) >= 2
            dek_ids = [record.dek_id for record in inventory]
            assert len(set(dek_ids)) == len(dek_ids)  # all distinct
            assert all(dek_id.startswith("dek-") for dek_id in dek_ids)


def test_dek_id_embedded_in_file_envelope():
    for scheme in SCHEMES:
        env = MemEnv()
        db = open_shield_db("/db", _shield(scheme=scheme), _base_options(env=env))
        with db:
            for i in range(500):
                db.put(b"key-%04d" % i, b"v" * 50)
            db.flush()
            inventory = dek_inventory(db)
            for record in inventory:
                raw = env.read_file(f"/db/{record.file_number:06d}.sst")
                envelope = decode_envelope(raw[:MAX_ENVELOPE_SIZE])
                assert envelope.dek_id == record.dek_id
                assert envelope.encrypted


def test_dek_rotation_via_compaction():
    for scheme in SCHEMES:
        kds = InMemoryKDS()
        db = open_shield_db("/db", _shield(kds, scheme=scheme), _base_options())
        with db:
            for i in range(2000):
                db.put(b"key-%05d" % (i % 500), b"v" * 50)
            db.flush()
            db.wait_for_compaction()
            before = dek_inventory(db)
            # A major compaction rewrites every file: full DEK rotation.
            db.force_compaction()
            after = dek_inventory(db)
            report = rotation_report(before, after)
            # Compaction merged every L0 file: all old DEKs rotated out.
            assert report.fully_rotated
            assert report.fresh
            # Retired DEKs are gone from the KDS: a stolen old DEK is useless.
            for dek_id in report.rotated_out:
                assert not kds.knows(dek_id)


def test_kds_dek_count_tracks_live_files():
    kds = InMemoryKDS()
    db = open_shield_db("/db", _shield(kds), _base_options())
    with db:
        for i in range(2000):
            db.put(b"key-%05d" % i, b"v" * 40)
        db.compact_range()
        live_files = len(db.live_files())
        # live DEKs = live SSTs + active WAL + manifest
        assert kds.live_dek_count() == live_files + 2


def test_recovery_resolves_deks_from_kds():
    env = MemEnv()
    kds = InMemoryKDS()
    db = open_shield_db("/db", _shield(kds), _base_options(env=env))
    for i in range(300):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    db.close()
    reopened = open_shield_db("/db", _shield(kds), _base_options(env=env))
    with reopened:
        for i in range(0, 300, 23):
            assert reopened.get(b"key-%04d" % i) == b"value-%04d" % i


def test_recovery_replays_encrypted_wal():
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        shield = _shield(kds, scheme=scheme, wal_buffer_size=0)
        db = open_shield_db("/db", shield, _base_options(env=env))
        db.put(b"unflushed", b"wal-only")
        db.simulate_crash()
        recovered = open_shield_db("/db", shield, _base_options(env=env))
        with recovered:
            assert recovered.get(b"unflushed") == b"wal-only"


def test_wal_buffer_loses_tail_on_crash_but_never_leaks():
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        # A large buffer: writes stay in it.
        shield = _shield(kds, scheme=scheme, wal_buffer_size=4096)
        db = open_shield_db("/db", shield, _base_options(env=env))
        db.put(b"buffered-key", b"buffered-value")
        db.simulate_crash()
        # The paper's trade-off: the buffered tail is lost on an app crash...
        recovered = open_shield_db(
            "/db", _shield(kds, scheme=scheme), _base_options(env=env)
        )
        with recovered:
            assert recovered.get(b"buffered-key") is None
        # ...but nothing plaintext ever reached storage.
        for name in env.list_dir("/db"):
            assert b"buffered-value" not in env.read_file(f"/db/{name}")


def test_wal_buffer_flush_on_explicit_sync():
    from repro.lsm.options import WriteOptions

    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = open_shield_db(
            "/db", _shield(kds, scheme=scheme, wal_buffer_size=4096),
            _base_options(env=env),
        )
        db.put(b"synced-key", b"synced-value", WriteOptions(sync=True))
        db.simulate_crash()
        recovered = open_shield_db(
            "/db", _shield(kds, scheme=scheme), _base_options(env=env)
        )
        with recovered:
            assert recovered.get(b"synced-key") == b"synced-value"


def test_secure_cache_absorbs_kds_fetches(tmp_path):
    clock = VirtualClock()
    kds = SimulatedKDS(clock=clock, request_latency_s=0.01)
    kds.authorize_server("server-1")
    cache = SecureDEKCache(str(tmp_path / "dekcache"), "passkey", iterations=10)
    env = MemEnv()
    shield = _shield(kds, dek_cache=cache)
    db = open_shield_db("/db", shield, _base_options(env=env))
    for i in range(300):
        db.put(b"key-%04d" % i, b"v" * 40)
    db.flush()
    db.close()
    slept_before = clock.total_slept
    # Restart: every DEK resolves from the local secure cache, zero KDS trips.
    reopened = open_shield_db(
        "/db", _shield(kds, dek_cache=cache), _base_options(env=env)
    )
    with reopened:
        assert reopened.get(b"key-0000") == b"v" * 40
        provider = reopened.options.crypto_provider
        client = provider.key_client
        assert client.stats.counter("keyclient.kds_fetches").value == 0
        assert client.stats.counter("keyclient.cache_hits").value > 0


def test_table2_ablation_flags():
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        shield = _shield(kds, scheme=scheme, encrypt_wal=False,
                         encrypt_manifest=False, wal_buffer_size=0)
        db = open_shield_db("/db", shield, _base_options(env=env))
        with db:
            db.put(b"needle-key", b"needle-value")
            wal_files = [n for n in env.list_dir("/db") if n.endswith(".log")]
            raw = env.read_file(f"/db/{wal_files[0]}")
            assert b"needle-value" in raw  # WAL left plaintext on purpose
            db.flush()
            sst_files = [n for n in env.list_dir("/db") if n.endswith(".sst")]
            raw = env.read_file(f"/db/{sst_files[0]}")
            assert b"needle-value" not in raw  # SSTs still encrypted


def test_unauthorized_server_cannot_open(tmp_path):
    env = MemEnv()
    kds = SimulatedKDS(clock=VirtualClock())
    kds.authorize_server("owner")
    db = open_shield_db(
        "/db", _shield(kds, server_id="owner"), _base_options(env=env)
    )
    db.put(b"k", b"v")
    db.flush()
    db.close()
    from repro.errors import AuthorizationError

    with pytest.raises(AuthorizationError):
        open_shield_db(
            "/db", _shield(kds, server_id="attacker"), _base_options(env=env)
        )


def test_revoked_server_blocked_mid_flight(tmp_path):
    env = MemEnv()
    kds = SimulatedKDS(clock=VirtualClock())
    kds.authorize_server("s1")
    db = open_shield_db("/db", _shield(kds, server_id="s1"), _base_options(env=env))
    with db:
        db.put(b"k", b"v" * 5000)  # enough to need another file soon
        kds.revoke_server("s1")
        with pytest.raises(Exception):
            for i in range(5000):
                db.put(b"key-%05d" % i, b"v" * 50)
            db.flush()


@pytest.mark.parametrize("cause", ["revoked", "outage"])
def test_failed_flush_goes_quiet_until_try_recover(cause):
    """A flush that cannot get its DEK must not reschedule itself: the
    memtable it failed on is still queued, so it would spin a background
    thread against the KDS forever.  The retry belongs to try_recover()."""
    kds = FaultyKDS(SimulatedKDS(clock=VirtualClock(), request_latency_s=0.0))
    kds.authorize_server("s1")
    cut = kds.go_down if cause == "outage" else lambda: kds.revoke_server("s1")
    SYNC.set_callback(SP_FLUSH_BEFORE_SST, cut)
    db = open_shield_db("/db", _shield(kds, server_id="s1"), _base_options())
    try:
        db.put(b"k", b"v")
        SYNC.enable()
        with pytest.raises(IOError_):
            db.flush()
        SYNC.clear()
        db.wait_for_compaction()  # returns: the one attempt is over
        calls = kds.requests
        expected = HEALTH_DEGRADED if cause == "outage" else HEALTH_FAILED
        assert db.health()["state"] == expected
        # Still queued, and nobody retrying.
        assert db.get_property("repro.immutable-memtables") == 1
        db.wait_for_compaction()
        assert kds.requests == calls
        if cause == "revoked":
            assert not db.try_recover()
            db.wait_for_compaction()
            assert kds.requests == calls
            return
        kds.come_up()
        # The outage tripped the KeyClient's breaker; an operator who has
        # healed the KDS closes it rather than waiting out its timer.
        db.provider.key_client.breaker.reset()
        assert db.try_recover()
        db.flush()  # nothing to switch: waits for the queued memtable only
        assert db.health()["state"] == HEALTH_HEALTHY
        assert db.num_files_at_level(0) == 1
        assert db.get(b"k") == b"v"
    finally:
        SYNC.clear()
        db.close()


def test_provider_counters():
    kds = InMemoryKDS()
    db = open_shield_db("/db", _shield(kds), _base_options())
    with db:
        for i in range(2000):
            db.put(b"key-%05d" % i, b"v" * 40)
        db.compact_range()
        provider = db.options.crypto_provider
        assert provider.deks_provisioned > 0
        assert provider.deks_retired > 0
        assert provider.deks_provisioned > provider.deks_retired
