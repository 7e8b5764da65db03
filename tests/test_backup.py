"""Tests for the incremental backup engine."""

import pytest

from repro.env.mem import MemEnv
from repro.errors import NotFoundError
from repro.keys.kds import InMemoryKDS
from repro.lsm.backup import BackupEngine
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db


def _options(env):
    return Options(env=env, write_buffer_size=8 * 1024, block_size=1024)


def test_backup_and_restore_roundtrip():
    env = MemEnv()
    db = DB("/src", _options(env))
    engine = BackupEngine(env, "/backups")
    for i in range(300):
        db.put(b"key-%03d" % i, b"v-%03d" % i)
    info = engine.create_backup(db)
    assert info.backup_id == 1
    assert info.new_files_copied >= 1
    db.close()
    # The layout backups have always had: what an older backup holds is
    # everything restore needs.
    assert sorted(env.list_dir("/backups/meta")) == ["000001", "000001.MANIFEST"]

    engine.restore(1, "/restored")
    restored = DB("/restored", _options(env))
    try:
        for i in range(0, 300, 17):
            assert restored.get(b"key-%03d" % i) == b"v-%03d" % i
    finally:
        restored.close()


def test_incremental_backup_shares_files():
    env = MemEnv()
    db = DB("/src", _options(env))
    engine = BackupEngine(env, "/backups")
    for i in range(300):
        db.put(b"key-%03d" % i, b"v1")
    first = engine.create_backup(db)
    # Small delta: only new files should be copied the second time.
    db.put(b"key-000", b"v2")
    second = engine.create_backup(db)
    assert second.backup_id == 2
    assert second.new_files_copied < first.new_files_copied + 2
    shared = set(first.file_numbers) & set(second.file_numbers)
    assert shared  # old SSTs are reused, not re-copied
    db.close()

    # Both backups restore to their own point in time.
    engine.restore(1, "/r1")
    engine.restore(2, "/r2")
    r1 = DB("/r1", _options(env))
    r2 = DB("/r2", _options(env))
    try:
        assert r1.get(b"key-000") == b"v1"
        assert r2.get(b"key-000") == b"v2"
    finally:
        r1.close()
        r2.close()


def test_restore_is_independent_of_source():
    env = MemEnv()
    db = DB("/src", _options(env))
    engine = BackupEngine(env, "/backups")
    db.put(b"k", b"original")
    engine.create_backup(db)
    db.put(b"k", b"mutated")
    db.flush()
    db.close()
    engine.restore(1, "/r")
    restored = DB("/r", _options(env))
    try:
        assert restored.get(b"k") == b"original"
    finally:
        restored.close()


def test_purge_old_backups_garbage_collects():
    env = MemEnv()
    db = DB("/src", _options(env))
    engine = BackupEngine(env, "/backups")
    for generation in range(3):
        for i in range(200):
            db.put(b"key-%03d" % i, b"gen-%d" % generation)
        engine.create_backup(db)
        db.force_compaction()  # rewrite files so generations don't share
    db.close()
    assert len(engine.list_backups()) == 3
    deleted = engine.purge_old_backups(keep=1)
    assert len(engine.list_backups()) == 1
    assert deleted > 0
    # The survivor still restores.
    survivor = engine.list_backups()[0]
    engine.restore(survivor.backup_id, "/r")
    restored = DB("/r", _options(env))
    try:
        assert restored.get(b"key-000") == b"gen-2"
    finally:
        restored.close()


def test_restore_unknown_backup():
    engine = BackupEngine(MemEnv(), "/backups")
    with pytest.raises(NotFoundError):
        engine.restore(42, "/nope")
    assert engine.list_backups() == []


def test_encrypted_backup_restores_via_kds():
    env = MemEnv()
    kds = InMemoryKDS()
    db = open_shield_db("/src", ShieldOptions(kds=kds), _options(env))
    engine = BackupEngine(env, "/backups")
    for i in range(200):
        db.put(b"key-%03d" % i, b"secret-%03d" % i)
    engine.create_backup(db)
    db.close()
    # Backed-up bytes are still ciphertext.
    for name in env.list_dir("/backups/shared"):
        assert b"secret-" not in env.read_file(f"/backups/shared/{name}")
    engine.restore(1, "/r")
    restored = open_shield_db("/r", ShieldOptions(kds=kds), _options(env))
    try:
        assert restored.get(b"key-100") == b"secret-100"
    finally:
        restored.close()
