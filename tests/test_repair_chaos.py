"""repair.py against chaos-produced database states.

The crash matrix proves normal recovery survives single-point kills;
these tests aim repair_db at the uglier wreckage chaos leaves behind --
a WAL with a torn tail, an SST deleted out from under the MANIFEST, and
an orphaned MANIFEST from a kill mid-CURRENT-swap -- and assert repair
converges to an openable database with a clean DEK audit.
"""

import pytest

from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.lsm.repair import repair_db
from repro.shield import ShieldOptions, open_shield_db
from repro.tools.dek_audit import audit_directory
from repro.util.syncpoint import SYNC


def _options(env):
    return Options(env=env, write_buffer_size=4 * 1024, block_size=1024,
                   wal_sync_writes=True, slowdown_delay_s=0.0)


#: Repair reads sealed files under the stream cipher and its AEAD alike.
SCHEMES = ("shake-ctr", "shake-etm")


def _shield(kds, scheme):
    return ShieldOptions(kds=kds, server_id="repair-chaos", scheme=scheme)


def _nuke_metadata(env, path):
    for name in list(env.list_dir(path)):
        if name.startswith("MANIFEST") or name == "CURRENT":
            env.delete_file(f"{path}/{name}")


def _assert_audit_clean(env, path):
    audit = audit_directory(env, path)
    assert [r["name"] for r in audit["rows"] if "error" in r] == []
    assert audit["plaintext_data_files"] == []
    assert audit["duplicate_key_nonce_pairs"] == []
    assert audit["shared_deks"] == []


def test_repair_after_torn_wal_tail():
    """A lying disk tears the WAL's last sync at crash time; repair (and
    plain recovery) must tolerate the torn tail."""
    for scheme in SCHEMES:
        inner = MemEnv()
        env = FaultInjectionEnv(inner)
        kds = InMemoryKDS()
        db = open_shield_db("/rc", _shield(kds, scheme), _options(env))
        for i in range(200):
            db.put(b"key-%04d" % i, b"flushed-%04d" % i)
        db.flush()
        # Post-flush writes live only in the WAL; the final sync lies.
        env.arm_torn_sync(drop_bytes=13, predicate=lambda p: p.endswith(".log"))
        for i in range(20):
            db.put(b"tail-%02d" % i, b"wal-only-%02d" % i)
        db.simulate_crash()
        env.crash_system()  # the tear comes true: WAL loses its last 13 bytes
        env.heal()

        _nuke_metadata(env, "/rc")
        provider = _shield(kds, scheme).build_provider()
        assert repair_db(env, "/rc", provider=provider) >= 1

        reopened = open_shield_db("/rc", _shield(kds, scheme), _options(env))
        try:
            for i in range(200):
                assert reopened.get(b"key-%04d" % i) == b"flushed-%04d" % i
            # The torn record (and only the torn record) may be gone; every
            # complete WAL record before it must have been replayed.
            recovered_tail = sum(
                reopened.get(b"tail-%02d" % i) is not None for i in range(20)
            )
            assert recovered_tail >= 19
            reopened.put(b"after-repair", b"ok")
            reopened.flush()
            assert reopened.get(b"after-repair") == b"ok"
        finally:
            reopened.close()
        _assert_audit_clean(env, "/rc")


def test_repair_after_sst_goes_missing():
    """Losing one SST must cost at most that SST's keys: repair rebuilds
    the MANIFEST from what is still readable instead of refusing."""
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = open_shield_db("/rc", _shield(kds, scheme), _options(env))
        for i in range(100):
            db.put(b"a-%03d" % i, b"va-%03d" % i)
        db.flush()
        for i in range(100):
            db.put(b"b-%03d" % i, b"vb-%03d" % i)
        db.flush()
        db.close()

        ssts = sorted(n for n in env.list_dir("/rc") if n.endswith(".sst"))
        assert len(ssts) >= 2
        env.delete_file(f"/rc/{ssts[0]}")  # chaos eats the older file
        _nuke_metadata(env, "/rc")

        provider = _shield(kds, scheme).build_provider()
        recovered = repair_db(env, "/rc", provider=provider)
        assert recovered == len(ssts) - 1

        reopened = open_shield_db("/rc", _shield(kds, scheme), _options(env))
        try:
            # The surviving file's keys are all there.
            assert reopened.get(b"b-050") == b"vb-050"
            present = sum(
                reopened.get(b"a-%03d" % i) is not None for i in range(100)
            ) + sum(
                reopened.get(b"b-%03d" % i) is not None for i in range(100)
            )
            assert present >= 100
        finally:
            reopened.close()
        _assert_audit_clean(env, "/rc")


def test_repair_after_orphaned_manifest():
    """A kill right after the CURRENT swap leaves the superseded MANIFEST
    on disk.  repair must converge to exactly one live MANIFEST."""
    for scheme in SCHEMES:
        mem = MemEnv()
        kds = InMemoryKDS()
        db = open_shield_db("/rc", _shield(kds, scheme), _options(mem))
        for i in range(150):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        db.close()

        # Reopen with a kill injected right after the CURRENT swap: the old
        # MANIFEST survives as an orphan in the crash image.
        fork = {}

        def kill():
            if "env" not in fork:
                fork["env"] = mem.fork(durable_only=False)
            raise RuntimeError("injected kill after CURRENT swap")

        SYNC.clear()
        SYNC.set_callback("manifest:after_current_swap", kill)
        SYNC.enable()
        try:
            with pytest.raises(Exception):
                open_shield_db("/rc", _shield(kds, scheme), _options(mem))
        finally:
            SYNC.clear()
        env = fork["env"]
        manifests = [n for n in env.list_dir("/rc") if n.startswith("MANIFEST")]
        assert len(manifests) >= 2  # the orphan really is there

        provider = _shield(kds, scheme).build_provider()
        assert repair_db(env, "/rc", provider=provider) >= 1
        reopened = open_shield_db("/rc", _shield(kds, scheme), _options(env))
        try:
            for i in range(0, 150, 13):
                assert reopened.get(b"key-%04d" % i) == b"value-%04d" % i
            reopened.put(b"post", b"ok")
            reopened.flush()
        finally:
            reopened.close()
        # Reopen-after-repair garbage-collects the orphaned MANIFEST.
        manifests = [n for n in env.list_dir("/rc") if n.startswith("MANIFEST")]
        assert len(manifests) == 1
        _assert_audit_clean(env, "/rc")
