"""Trivial moves: a leveled job whose inputs overlap nothing at the output
level, and not each other, relinks them one level down in one MANIFEST
edit.  A moved file keeps its number, bytes and DEK; a merge still rewrites
what it consumes under fresh DEKs, and ``force_compaction`` rewrites all."""

import pytest

from repro.env.mem import MemEnv
from repro.errors import AuthenticationError
from repro.keys.kds import InMemoryKDS
from repro.lsm.compaction import CompactionJob
from repro.lsm.envelope import envelope_dek_id
from repro.lsm.filename import sst_path
from repro.lsm.options import Options
from repro.lsm.version import FileMetadata
from repro.shield import ShieldOptions, open_shield_db
from repro.tools.dek_audit import audit_directory
from tests.test_adversarial_integrity import (
    _flip_payload_byte, _sst_paths, wait_until,
)

PATH = "/move"


def _open(env, kds, **overrides):
    """A SHIELD DB under the AEAD (a failed tag quarantines), its compaction
    parked (the trigger out of reach) so a test lays out L0 first; one
    flush is one file."""
    options = Options(
        env=env, write_buffer_size=64 * 1024, block_size=512,
        level0_file_num_compaction_trigger=100,
    )
    for name, setting in overrides.items():
        setattr(options, name, setting)
    return open_shield_db(PATH, ShieldOptions(kds=kds, scheme="shake-etm"), options)


def _count(db, name):
    return db.stats.counter(name).value


def _files(db):
    """Live SSTs as ``{number: (level, DEK-ID)}``."""
    return {meta.number: (level, meta.dek_id) for level, meta in db.live_files()}


def _load(db, oracle, batches, width=50, key=lambda batch, i: b"key-%06d" % i):
    """``batches`` flushed files of ``width`` keys each."""
    for batch in batches:
        for i in range(batch * width, (batch + 1) * width):
            k = key(batch, i)
            oracle[k] = b"value-%d-%06d" % (batch, i)
            db.put(k, oracle[k])
        db.flush()


def _agrees(db, oracle):
    assert {k: db.get(k) for k in oracle} == oracle
    assert db.scan() == sorted(oracle.items())


def _no_dek_leaked(env, kds):
    """Every DEK the KDS holds is named by a file of the directory."""
    named = {row["dek_id"] for row in audit_directory(env, PATH)["rows"]}
    assert kds.live_dek_count() == len(named)


def test_is_move_needs_one_input_level_above_a_leveled_output_and_disjoint_inputs():
    def meta(number, low, high):
        return FileMetadata(
            number=number, size=1, smallest=low, largest=high,
            smallest_seq=number, largest_seq=number, num_entries=1,
        )

    a, b, c = meta(1, b"a", b"c"), meta(2, b"d", b"f"), meta(3, b"b", b"e")
    assert CompactionJob(inputs={0: [b, a]}, output_level=1).is_move()
    assert CompactionJob(inputs={2: [a]}, output_level=3).is_move()
    assert not CompactionJob(inputs={0: [a, c]}, output_level=1).is_move()
    assert not CompactionJob(inputs={1: [a], 2: [b]}, output_level=2).is_move()
    assert not CompactionJob(inputs={0: [a, b]}, output_level=0).is_move()
    assert not CompactionJob(inputs={6: [a, b]}, output_level=6).is_move()
    assert not CompactionJob(
        inputs={0: [a, b]}, output_level=1, delete_only=True
    ).is_move()


def test_an_ascending_load_moves_files_down_unread():
    """Each moved file keeps its number and DEK-ID, no merge byte is written,
    no DEK leaks, and the MANIFEST's move edits replay on reopen."""
    env, kds, oracle = MemEnv(), InMemoryKDS(), {}
    db = _open(env, kds, max_bytes_for_level_base=4 * 1024)
    try:
        _load(db, oracle, range(4))
        db.wait_for_compaction()
        flushed = _files(db)
        assert [level for level, __ in flushed.values()] == [0] * 4

        db.options.level0_file_num_compaction_trigger = 2
        db.wait_for_compaction()
        moved = _files(db)
        assert db.num_files_at_level(0) == 0
        assert {n: dek for n, (__, dek) in moved.items()} == {
            n: dek for n, (__, dek) in flushed.items()
        }
        for number, (__, dek_id) in moved.items():
            assert envelope_dek_id(env.read_file(sst_path(PATH, number))) == dek_id
            assert kds.knows(dek_id)
        assert _count(db, "db.trivial_moves") >= 4

        _load(db, oracle, range(4, 16))  # moves with the load, not after it
        db.wait_for_compaction()
        assert max(level for level, __ in _files(db).values()) >= 2
        assert _count(db, "db.compactions") == 0
        assert _count(db, "db.compaction_bytes_written") == 0
        _agrees(db, oracle)
        _no_dek_leaked(env, kds)
        before = _files(db)
    finally:
        db.close()

    with _open(env, kds, max_bytes_for_level_base=4 * 1024) as db:
        assert _files(db) == before
        _agrees(db, oracle)
        _no_dek_leaked(env, kds)


def test_overlapping_l0_files_merge():
    """Disjoint L0 files move; two that overlap each other merge, even with
    nothing below them, and their DEKs are retired."""
    env, kds, oracle = MemEnv(), InMemoryKDS(), {}
    with _open(env, kds) as db:
        _load(db, oracle, range(2))
        db.options.level0_file_num_compaction_trigger = 2
        db.wait_for_compaction()
        assert _count(db, "db.trivial_moves") == 2

        db.options.level0_file_num_compaction_trigger = 100
        # Above every key so far (no overlap in L1), but even and odd keys
        # interleave between the two files.
        _load(db, oracle, range(2, 4), key=lambda batch, i: b"key-%06d" % (
            200 + 2 * (i - batch * 50) + batch % 2
        ))
        overlapping = {n: dek for n, (level, dek) in _files(db).items() if level == 0}
        assert len(overlapping) == 2
        db.options.level0_file_num_compaction_trigger = 2
        db.wait_for_compaction()
        assert _count(db, "db.trivial_moves") == 2
        assert _count(db, "db.compactions") == 1
        assert not set(overlapping) & set(_files(db))
        assert not any(kds.knows(dek) for dek in overlapping.values())
        _agrees(db, oracle)
        _no_dek_leaked(env, kds)


def test_an_input_overlapping_the_output_level_merges():
    """An L1 file over L2 data merges with it, after the L0 file it came
    from moved into an empty L1."""
    env, kds, oracle = MemEnv(), InMemoryKDS(), {}
    with _open(env, kds, num_levels=3, max_bytes_for_level_base=1) as db:
        _load(db, oracle, range(1))
        db.force_compaction()  # one file at L2, the bottom
        assert [level for level, __ in _files(db).values()] == [2]
        assert _count(db, "db.compactions") == 1

        _load(db, oracle, range(1), key=lambda batch, i: b"key-%06d" % (2 * i))
        db.options.level0_file_num_compaction_trigger = 1
        db.wait_for_compaction()
        assert _count(db, "db.trivial_moves") == 1  # L0 -> L1
        assert _count(db, "db.compactions") == 2  # L1 -> L2 merges
        assert [level for level, __ in _files(db).values()] == [2]
        _agrees(db, oracle)
        _no_dek_leaked(env, kds)


def test_a_quarantined_file_is_never_moved():
    """A file whose tag failed stays where it is, and so does the L0 job it
    belongs to; the clean read that lifts the mark lets the move run."""
    env, kds, oracle = MemEnv(), InMemoryKDS(), {}
    with _open(env, kds) as db:
        _load(db, oracle, range(3))
        db.wait_for_compaction()
        victim = _sst_paths(env, PATH)[0]
        honest = env.read_file(victim)
        _flip_payload_byte(env, victim, skew=0.3)
        with pytest.raises(AuthenticationError):
            db.scan()  # reaches every file
        assert len(db.quarantined_files()) == 1

        db.options.level0_file_num_compaction_trigger = 2
        db.wait_for_compaction()
        assert db.num_files_at_level(0) == 3
        assert _count(db, "db.trivial_moves") == 0

        env.write_file(victim, honest)
        assert db.get(b"key-000000") == oracle[b"key-000000"]
        assert db.quarantined_files() == []
        wait_until(db, lambda: db.num_files_at_level(0) == 0)
        assert _count(db, "db.trivial_moves") == 3
        _agrees(db, oracle)


def test_force_compaction_rewrites_moved_files_under_fresh_deks():
    """A level of disjoint files is a move for the picker, but a forced
    compaction rewrites it: every old DEK is retired (Section 5.5)."""
    env, kds, oracle = MemEnv(), InMemoryKDS(), {}
    with _open(env, kds) as db:
        _load(db, oracle, range(4))
        db.options.level0_file_num_compaction_trigger = 2
        db.wait_for_compaction()
        old = _files(db)
        assert {level for level, __ in old.values()} == {1}
        assert _count(db, "db.trivial_moves") == 4

        db.force_compaction()
        new = _files(db)
        assert not set(old) & set(new)
        assert not any(kds.knows(dek) for __, dek in old.values())
        assert _count(db, "db.compactions") == 1
        _agrees(db, oracle)
        _no_dek_leaked(env, kds)
