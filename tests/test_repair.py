"""Tests for MANIFEST repair."""

import pytest

from repro.env.mem import MemEnv
from repro.errors import RecoveryError
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.repair import repair_db
from repro.shield import ShieldOptions, open_shield_db


def _options(env):
    return Options(env=env, write_buffer_size=4 * 1024, block_size=1024)


def _nuke_metadata(env, path):
    for name in list(env.list_dir(path)):
        if name.startswith("MANIFEST") or name == "CURRENT":
            env.delete_file(f"{path}/{name}")


def test_repair_plaintext_db():
    env = MemEnv()
    db = DB("/r", _options(env))
    for i in range(600):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.compact_range()
    db.close()
    _nuke_metadata(env, "/r")

    recovered_count = repair_db(env, "/r")
    assert recovered_count >= 1
    db = DB("/r", _options(env))
    try:
        for i in range(0, 600, 43):
            assert db.get(b"key-%04d" % i) == b"value-%04d" % i
    finally:
        db.close()


def test_repair_preserves_latest_versions():
    env = MemEnv()
    db = DB("/r", _options(env))
    db.put(b"k", b"old")
    db.flush()
    db.put(b"k", b"new")
    db.flush()
    db.close()
    _nuke_metadata(env, "/r")
    repair_db(env, "/r")
    db = DB("/r", _options(env))
    try:
        assert db.get(b"k") == b"new"  # sequence numbers pick the winner
    finally:
        db.close()


def test_repair_encrypted_db():
    for scheme in ("shake-ctr", "shake-etm"):
        env = MemEnv()
        shield = ShieldOptions(kds=InMemoryKDS(), scheme=scheme)
        db = open_shield_db("/r", shield, _options(env))
        for i in range(400):
            db.put(b"key-%04d" % i, b"secret-%04d" % i)
        db.flush()
        db.close()
        _nuke_metadata(env, "/r")

        repair_db(env, "/r", provider=shield.build_provider())
        reopened = open_shield_db("/r", shield, _options(env))
        try:
            for i in range(0, 400, 31):
                assert reopened.get(b"key-%04d" % i) == b"secret-%04d" % i
        finally:
            reopened.close()


def test_repair_empty_dir_raises():
    env = MemEnv()
    env.mkdirs("/empty")
    with pytest.raises(RecoveryError):
        repair_db(env, "/empty")


def test_repair_then_writes_continue():
    env = MemEnv()
    db = DB("/r", _options(env))
    db.put(b"before", b"1")
    db.flush()
    db.close()
    _nuke_metadata(env, "/r")
    repair_db(env, "/r")
    db = DB("/r", _options(env))
    try:
        db.put(b"after", b"2")
        db.flush()
        assert db.get(b"before") == b"1"
        assert db.get(b"after") == b"2"
    finally:
        db.close()
