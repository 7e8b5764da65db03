"""Tests for multi_get, checkpoint, get_property, and AlignedReadEnv."""

import threading

import pytest

from repro.crypto.cipher import generate_key
from repro.env.aligned import AlignedReadEnv
from repro.env.base import EnvWrapper
from repro.env.mem import MemEnv
from repro.errors import InvalidArgumentError
from repro.keys.kds import InMemoryKDS
from repro.lsm.backup import BackupEngine
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db


def _options(env, **overrides):
    defaults = dict(env=env, write_buffer_size=8 * 1024, block_size=1024)
    defaults.update(overrides)
    return Options(**defaults)


def test_multi_get_mixed_hits():
    db = DB("/m", _options(MemEnv()))
    with db:
        for i in range(200):
            db.put(b"key-%03d" % i, b"v-%03d" % i)
        db.flush()
        keys = [b"key-005", b"key-150", b"missing", b"key-005"]
        results = db.multi_get(keys)
        assert results[b"key-005"] == b"v-005"
        assert results[b"key-150"] == b"v-150"
        assert results[b"missing"] is None
        assert len(results) == 3  # duplicates collapse


def test_multi_get_snapshot():
    from repro.lsm.options import ReadOptions

    db = DB("/m", _options(MemEnv()))
    with db:
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        results = db.multi_get([b"k"], ReadOptions(snapshot=snap))
        assert results[b"k"] == b"v1"


def test_checkpoint_is_independent_copy():
    env = MemEnv()
    db = DB("/src", _options(env))
    for i in range(300):
        db.put(b"key-%03d" % i, b"v-%03d" % i)
    db.checkpoint("/snap")
    # Mutate the source afterwards; the checkpoint must not change.
    for i in range(300):
        db.put(b"key-%03d" % i, b"CHANGED")
    db.flush()
    db.close()

    copy = DB("/snap", _options(env))
    try:
        for i in range(0, 300, 23):
            assert copy.get(b"key-%03d" % i) == b"v-%03d" % i
    finally:
        copy.close()


def test_checkpoint_encrypted_opens_via_kds():
    env = MemEnv()
    kds = InMemoryKDS()
    db = open_shield_db("/src", ShieldOptions(kds=kds), _options(env))
    for i in range(200):
        db.put(b"key-%03d" % i, b"secret-%03d" % i)
    db.checkpoint("/snap")
    db.close()
    copy = open_shield_db("/snap", ShieldOptions(kds=kds), _options(env))
    try:
        assert copy.get(b"key-100") == b"secret-100"
    finally:
        copy.close()


class _OpenHookEnv(EnvWrapper):
    """``on_open(path)`` runs inside every open-for-read."""

    on_open = None

    def new_random_access_file(self, path):
        if self.on_open is not None:
            self.on_open(path)
        return self.inner.new_random_access_file(path)


@pytest.mark.parametrize("copier", ["checkpoint", "backup"])
def test_manifest_is_copied_while_the_engine_mutex_is_held(copier):
    """The file list and the MANIFEST must be of one instant: a flush that
    slipped between them would append an edit naming an SST the copy lacks.
    So the MANIFEST is read with the mutex held -- another thread cannot
    take it at that moment."""
    env = _OpenHookEnv(MemEnv())
    db = DB("/src", _options(env))
    mutex_was_held = []

    def probe(path):
        if "MANIFEST" in path:
            def try_mutex():
                taken = db._mutex.acquire(blocking=False)
                if taken:
                    db._mutex.release()
                mutex_was_held.append(not taken)
            other = threading.Thread(target=try_mutex)
            other.start()
            other.join()

    with db:
        for i in range(300):
            db.put(b"key-%03d" % i, b"v-%03d" % i)
        env.on_open = probe
        if copier == "checkpoint":
            db.checkpoint("/snap")
        else:
            BackupEngine(env, "/backups").create_backup(db)
        env.on_open = None
    assert mutex_was_held == [True]


def test_get_property():
    db = DB("/p", _options(MemEnv()))
    with db:
        for i in range(400):
            db.put(b"key-%03d" % (i % 200), b"v" * 40)
        db.flush()
        assert db.get_property("repro.num-live-files") >= 1
        total = sum(
            db.get_property(f"repro.num-files-at-level{level}")
            for level in range(db.options.num_levels)
        )
        assert total >= 1
        assert db.get_property("repro.total-sst-size") > 0
        assert db.get_property("repro.last-sequence") == 400
        assert db.get_property("repro.immutable-memtables") == 0
        assert db.get_property("repro.block-cache-usage") >= 0
        stats = db.get_property("repro.stats")
        assert stats["db.writes"] == 400
        with pytest.raises(InvalidArgumentError):
            db.get_property("rocksdb.estimate-num-keys")


def test_iterator_streams_sorted_pairs():
    db = DB("/it", _options(MemEnv()))
    with db:
        for i in range(200):
            db.put(b"key-%03d" % i, b"v-%03d" % i)
        db.flush()
        for i in range(200, 250):
            db.put(b"key-%03d" % i, b"v-%03d" % i)  # memtable
        db.delete(b"key-100")
        pairs = list(db.iterator(b"key-090", b"key-110"))
        keys = [k for k, __ in pairs]
        assert keys == sorted(keys)
        assert b"key-100" not in keys
        assert (b"key-099", b"v-099") in pairs
        # Lazy: taking a few items doesn't require draining.
        cursor = db.iterator()
        first = next(cursor)
        assert first[0] == b"key-000"


def test_iterator_snapshot_cutoff():
    from repro.lsm.options import ReadOptions

    db = DB("/it", _options(MemEnv()))
    with db:
        db.put(b"k", b"old")
        snap = db.snapshot()
        db.put(b"k", b"new")
        pairs = dict(db.iterator(opts=ReadOptions(snapshot=snap)))
        assert pairs[b"k"] == b"old"


def test_iterator_survives_concurrent_compaction():
    options = _options(MemEnv(), level0_file_num_compaction_trigger=2)
    db = DB("/it", options)
    with db:
        for i in range(500):
            db.put(b"key-%04d" % i, b"v" * 30)
        db.flush()
        cursor = db.iterator()
        consumed = [next(cursor) for _ in range(10)]
        db.force_compaction()  # rewrites every file under the cursor
        rest = list(cursor)
        assert len(consumed) + len(rest) == 500


def test_stats_string():
    db = DB("/st", _options(MemEnv()))
    with db:
        for i in range(300):
            db.put(b"key-%03d" % i, b"v" * 40)
        db.get(b"key-001")
        db.flush()
        dump = db.stats_string()
        assert "== DB stats" in dump
        assert "db.writes: 300" in dump
        assert "last sequence: 300" in dump
        assert "block cache" in dump
        assert "level" in dump


def test_delete_range():
    db = DB("/dr", _options(MemEnv()))
    with db:
        for i in range(100):
            db.put(b"key-%03d" % i, b"v")
        deleted = db.delete_range(b"key-020", b"key-040")
        assert deleted == 20
        assert db.get(b"key-019") == b"v"
        assert db.get(b"key-020") is None
        assert db.get(b"key-039") is None
        assert db.get(b"key-040") == b"v"
        assert db.delete_range(b"zzz", b"zzzz") == 0


def test_approximate_size():
    db = DB("/as", _options(MemEnv()))
    with db:
        assert db.approximate_size() == 0
        for i in range(500):
            db.put(b"key-%03d" % i, b"x" * 50)
        db.flush()
        total = db.approximate_size()
        assert total > 0
        partial = db.approximate_size(b"key-100", b"key-200")
        assert 0 < partial <= total
        assert db.approximate_size(b"zzz", b"zzzz") == 0


def test_aligned_env_expands_reads():
    inner = MemEnv()
    env = AlignedReadEnv(inner, alignment=512)
    env.write_file("/f", bytes(range(256)) * 8)  # 2048 bytes
    with env.new_random_access_file("/f") as handle:
        assert handle.read(100, 50) == (bytes(range(256)) * 8)[100:150]
        assert handle.read(0, 0) == b""
    assert env.stats.counter("alignedio.requested_bytes").value == 50
    assert env.stats.counter("alignedio.physical_bytes").value == 512
    assert env.read_amplification() > 1.0


def test_aligned_env_rejects_bad_alignment():
    with pytest.raises(InvalidArgumentError):
        AlignedReadEnv(MemEnv(), alignment=3000)


def test_db_on_aligned_env():
    env = AlignedReadEnv(MemEnv(), alignment=512)
    db = DB("/a", _options(env))
    with db:
        for i in range(300):
            db.put(b"key-%03d" % i, b"v-%03d" % i)
        db.flush()
        for i in range(0, 300, 17):
            assert db.get(b"key-%03d" % i) == b"v-%03d" % i
    assert env.read_amplification() >= 1.0


def test_encfs_preserves_alignment():
    """EncryptedEnv is length-preserving, so it composes with a direct-I/O
    device model (the paper's Section 4.1 block-alignment requirement)."""
    from repro.encfs.env import EncryptedEnv

    device = AlignedReadEnv(MemEnv(), alignment=512)
    env = EncryptedEnv(device, generate_key("shake-ctr"))
    db = DB("/a", _options(env))
    with db:
        for i in range(300):
            db.put(b"key-%03d" % i, b"v-%03d" % i)
        db.flush()
        for i in range(0, 300, 31):
            assert db.get(b"key-%03d" % i) == b"v-%03d" % i
    # The device saw (amplified) aligned requests while everything
    # decrypted correctly -- length-preserving encryption kept offsets 1:1.
    assert device.read_amplification() >= 1.0
    assert device.stats.counter("alignedio.physical_bytes").value > 0
