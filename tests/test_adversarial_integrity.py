"""Adversarial integrity tests: the SHIELD++ guarantees, end to end.

Every test here plays the Section-3 storage adversary against a live
database opened through ``open_shield_db`` with an AEAD scheme and checks
the promised failure mode: tampering raises ``AuthenticationError`` (never
a silently wrong value), snapshot replay raises ``RollbackError``, and
repair quarantines rather than aborts.
"""

import threading

import pytest

from repro.dist.compaction_service import CompactionService
from repro.dist.readonly import ReadOnlyInstance
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError, RollbackError
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS
from repro.lsm.envelope import MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.options import Options, WriteOptions
from repro.lsm.repair import QUARANTINE_SUFFIX, repair_db
from repro.integrity.freshness import SP_COUNTER_AFTER_PERSIST
from repro.shield import ShieldOptions, open_shield_db
from repro.integrity import MemoryTrustedCounter
from repro.util.syncpoint import SYNC

_AEAD_SCHEME = "shake-etm"  # the fast AEAD; GCM/Poly1305 are covered in unit tests


def _options(env, counter=None):
    # A roomy write buffer keeps each explicit flush() to exactly one SST
    # (and no surprise auto-flushes), so tests can target files precisely.
    return Options(env=env, write_buffer_size=64 * 1024, block_size=512,
                   trusted_counter=counter)


def _shield(kds, wal_buffer_size=None, **kwargs):
    kwargs.update(kds=kds, scheme=_AEAD_SCHEME)
    if wal_buffer_size is not None:
        kwargs["wal_buffer_size"] = wal_buffer_size
    return ShieldOptions(**kwargs)


def _flip_payload_byte(env, path, skew=0.5):
    """Flip one bit inside the encrypted payload (never the envelope)."""
    raw = bytearray(env.read_file(path))
    envelope = decode_envelope(bytes(raw[:MAX_ENVELOPE_SIZE]))
    position = envelope.header_size + int(
        (len(raw) - envelope.header_size) * skew
    )
    raw[position] ^= 0x01
    env.write_file(path, bytes(raw))
    return bytes(raw)


def _sst_paths(env, dbname):
    return sorted(
        f"{dbname}/{name}"
        for name in env.list_dir(dbname)
        if name.endswith(".sst")
    )


def test_sst_bit_flip_raises_never_lies():
    """A flipped ciphertext bit surfaces as AuthenticationError on read --
    the engine must never return a silently wrong value."""
    env = MemEnv()
    db = open_shield_db("/adv", _shield(InMemoryKDS()), _options(env))
    try:
        for i in range(200):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        (sst_path,) = _sst_paths(env, "/adv")[:1]
        original = env.read_file(sst_path)
        _flip_payload_byte(env, sst_path)

        with pytest.raises(AuthenticationError):
            for i in range(200):
                got = db.get(b"key-%04d" % i)
                assert got in (None, b"value-%04d" % i)  # no wrong values

        # The failure is surfaced operationally, not just as an exception.
        health = db.health()
        assert health["state"] == "degraded"
        assert health["reason"] == "quarantined-sst"
        assert db.stats_snapshot()["integrity.quarantines"] >= 1

        # Quarantine is advisory: restoring the bytes self-heals.
        env.write_file(sst_path, original)
        assert db.get(b"key-0000") == b"value-0000"
        assert db.health()["state"] == "healthy"
    finally:
        db.close()


def test_sst_bit_flip_fails_scans_too():
    env = MemEnv()
    db = open_shield_db("/adv", _shield(InMemoryKDS()), _options(env))
    try:
        for i in range(200):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        db.flush()
        _flip_payload_byte(env, _sst_paths(env, "/adv")[0])
        with pytest.raises(AuthenticationError):
            list(db.scan(b"key-0000", b"key-9999"))
    finally:
        db.close()


def test_wal_bit_flip_fails_recovery():
    """Tampering with a complete WAL unit must fail replay loudly; it must
    not be mistaken for an honest torn tail."""
    env = MemEnv()
    kds = InMemoryKDS()
    db = open_shield_db("/adv", _shield(kds, wal_buffer_size=0), _options(env))
    for i in range(20):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.simulate_crash()

    wal_path = next(
        f"/adv/{name}" for name in env.list_dir("/adv") if name.endswith(".log")
    )
    _flip_payload_byte(env, wal_path, skew=0.25)
    with pytest.raises(AuthenticationError):
        open_shield_db("/adv", _shield(kds), _options(env))


def test_wal_torn_tail_still_recovers():
    """Contrast with the bit flip: an honest torn tail (truncated final
    unit) replays everything before it and opens cleanly."""
    env = MemEnv()
    kds = InMemoryKDS()
    db = open_shield_db("/adv", _shield(kds, wal_buffer_size=0), _options(env))
    for i in range(20):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.simulate_crash()

    wal_path = next(
        f"/adv/{name}" for name in env.list_dir("/adv") if name.endswith(".log")
    )
    raw = env.read_file(wal_path)
    env.write_file(wal_path, raw[: len(raw) - 5])  # tear the last unit
    recovered = open_shield_db("/adv", _shield(kds), _options(env))
    try:
        assert recovered.get(b"key-0000") == b"value-0000"
    finally:
        recovered.close()


def _synced_puts_after_a_flush(scheme):
    """50 puts and a flush, then 50 synced puts and a clean close: the one
    WAL left holds the 50 synced writes, and the counter anchors them."""
    env, counter = MemEnv(), MemoryTrustedCounter()
    shield = ShieldOptions(kds=InMemoryKDS(), scheme=scheme)
    db = open_shield_db("/adv", shield, _options(env, counter))
    for i in range(50):
        db.put(b"flushed-%02d" % i, b"v")
    db.flush()
    for i in range(50):
        db.put(b"synced-%02d" % i, b"v", WriteOptions(sync=True))
    db.close()
    (wal,) = [name for name in env.list_dir("/adv") if name.endswith(".log")]
    return env, counter, shield, f"/adv/{wal}"


@pytest.mark.parametrize("damage", ["delete", "cut-below-the-floor"])
@pytest.mark.parametrize("scheme", ["shake-ctr", "shake-etm"])
def test_a_deleted_or_cut_live_wal_is_a_rollback(scheme, damage):
    """Synced writes the anchor covers cannot vanish with their log: the
    MANIFEST names the WAL, the counter holds its synced length."""
    env, counter, shield, wal = _synced_puts_after_a_flush(scheme)
    if damage == "delete":
        env.delete_file(wal)
    else:
        raw = env.read_file(wal)
        env.write_file(wal, raw[: len(raw) // 2])
    with pytest.raises(RollbackError):
        open_shield_db("/adv", shield, _options(env, counter))


def test_snapshot_replay_raises_rollback():
    """Restoring an old-but-authentic storage snapshot fails DB.open with
    RollbackError once the trusted counter has moved on."""
    env = MemEnv()
    kds = InMemoryKDS()
    counter = MemoryTrustedCounter()
    db = open_shield_db("/adv", _shield(kds), _options(env, counter))
    for i in range(100):
        db.put(b"key-%04d" % i, b"old-%04d" % i)
    db.flush()
    db.close()

    snapshot = env.fork(durable_only=False)  # the adversary's stolen image
    kds_snapshot = kds.fork()

    # Life goes on: two more flush cycles, so the snapshot's root is
    # neither the counter's current root nor its one-step torn window.
    db = open_shield_db("/adv", _shield(kds), _options(env, counter))
    for round_ in range(2):
        for i in range(100):
            db.put(b"key-%04d" % i, b"new-%d-%04d" % (round_, i))
        db.flush()
    db.close()

    with pytest.raises(RollbackError):
        open_shield_db(
            "/adv", _shield(kds_snapshot), _options(snapshot, counter)
        )


def test_fresh_reopen_is_not_a_rollback():
    """The freshness check must not fire on an honest close/reopen."""
    env = MemEnv()
    kds = InMemoryKDS()
    counter = MemoryTrustedCounter()
    db = open_shield_db("/adv", _shield(kds), _options(env, counter))
    for i in range(100):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    db.close()
    reopened = open_shield_db("/adv", _shield(kds), _options(env, counter))
    try:
        assert reopened.get(b"key-0000") == b"value-0000"
        assert reopened.stats_snapshot()["integrity.freshness_checks"] >= 1
    finally:
        reopened.close()


def test_repair_quarantines_tampered_sst():
    """repair_db moves an auth-failed SST aside and rebuilds from the
    rest instead of aborting the whole repair."""
    env = MemEnv()
    kds = InMemoryKDS()
    shield = _shield(kds)
    db = open_shield_db("/adv", shield, _options(env))
    for i in range(200):
        db.put(b"a-%04d" % i, b"va-%04d" % i)
    db.flush()
    for i in range(200):
        db.put(b"b-%04d" % i, b"vb-%04d" % i)
    db.flush()
    db.close()

    ssts = _sst_paths(env, "/adv")
    assert len(ssts) >= 2
    _flip_payload_byte(env, ssts[0])

    provider = shield.build_provider()
    recovered = repair_db(env, "/adv", provider=provider)
    assert recovered == len(ssts) - 1
    assert env.file_exists(ssts[0] + QUARANTINE_SUFFIX)
    assert not env.file_exists(ssts[0])

    reopened = open_shield_db("/adv", shield, _options(env))
    try:
        survivors = sum(
            reopened.get(b"a-%04d" % i) is not None for i in range(200)
        ) + sum(reopened.get(b"b-%04d" % i) is not None for i in range(200))
        assert survivors >= 200  # everything outside the tampered file
    finally:
        reopened.close()


def test_repair_reanchors_trusted_counter():
    """Running repair is the operator's attestation: the counter is
    re-anchored to the repaired set, so the next open is fresh, and the
    pre-repair image remains rejected."""
    env = MemEnv()
    kds = InMemoryKDS()
    counter = MemoryTrustedCounter()
    shield = _shield(kds)
    db = open_shield_db("/adv", shield, _options(env, counter))
    for i in range(200):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    for i in range(200):
        db.put(b"other-%04d" % i, b"value-%04d" % i)
    db.flush()
    db.close()
    pre_repair = env.fork(durable_only=False)
    pre_repair_kds = kds.fork()  # repair retires DEKs; the image needs its own

    ssts = _sst_paths(env, "/adv")
    _flip_payload_byte(env, ssts[0])
    repair_options = _options(env, counter)
    repair_db(env, "/adv", provider=shield.build_provider(), options=repair_options)
    reopened = open_shield_db("/adv", shield, _options(env, counter))
    # One more flush pushes the pre-repair root past the one-transition
    # torn-update window; the stolen image must now read as a rollback.
    reopened.put(b"post-repair", b"value")
    reopened.flush()
    reopened.close()

    with pytest.raises(RollbackError):
        open_shield_db(
            "/adv",
            _shield(pre_repair_kds),
            _options(pre_repair, counter),
        )


class _OutageAfterGrants(FaultyKDS):
    """Goes down right after granting ``grants_left`` more DEKs."""

    grants_left = None

    def provision(self, server_id, scheme="shake-ctr"):
        dek = super().provision(server_id, scheme)
        if self.grants_left is not None:
            self.grants_left -= 1
            if self.grants_left == 0:
                self.go_down()
        return dek


def overlapping_key(batch, i):
    """Key ``i`` of ``batch`` in three overlapping files: the prefix digit
    turns with ``i``, so every batch spans all three prefixes and the due
    job merges the files (disjoint L0 files would move down unread)."""
    return b"key-%d-%04d" % ((batch + i) % 3, i)


def _three_parked_l0_files(
    route, kds, key, keys_per_file=100, counter=None,
    value=lambda batch, i: b"value-%04d" % i, chunk_size=64 * 1024, **engine,
):
    """A DB holding three L0 files with compaction parked (trigger out of
    reach), so the test picks the moment the one job runs; ``route`` picks
    who runs it: the DB, or a worker with its own KDS identity.  A merge
    reads (and authenticates) its inputs ``chunk_size`` bytes at a time."""
    env = MemEnv()
    options = _options(env, counter)
    options.level0_file_num_compaction_trigger = 100
    options.encryption_chunk_size = chunk_size  # what an offloaded worker sees
    for name, setting in engine.items():
        setattr(options, name, setting)
    if route == "offloaded":
        worker = ShieldOptions(
            kds=kds, scheme=_AEAD_SCHEME, server_id="compaction-1"
        )
        options.compaction_service = CompactionService(
            env, worker.build_provider(), options
        )
    shield = _shield(kds)
    db = open_shield_db("/adv", shield, options)
    for batch in range(3):
        for i in range(keys_per_file):
            db.put(key(batch, i), value(batch, i))
        db.flush()
    db.wait_for_compaction()  # quiescent: each flush's WAL is deleted by now
    assert len(_sst_paths(env, "/adv")) == 3
    return env, db


def _release_compaction(db, timeout=30.0):
    """Let the parked job run; fail instead of hanging if the wait never
    ends (a job that aborts without excluding its input is picked again)."""
    db.options.level0_file_num_compaction_trigger = 3
    returned = threading.Event()

    def wait():
        db.wait_for_compaction()
        returned.set()

    threading.Thread(target=wait, daemon=True).start()
    assert returned.wait(timeout), "wait_for_compaction() never returned"


def wait_until(db, predicate, timeout=20.0):
    """Block on the engine's own condition until ``predicate()``: no sleeps
    and no scheduling call -- every state change announces itself there."""
    with db._cond:
        assert db._cond.wait_for(predicate, timeout), "the engine never got there"


@pytest.mark.parametrize("route", ["local", "offloaded"])
def test_compaction_over_tampered_input_quarantines_and_aborts(route):
    """Compaction reads its inputs as raw entries, outside the block cache;
    the tag is still checked before any block is parsed.  A tampered input
    quarantines that file and aborts the job, once -- wherever the merge ran
    -- inputs stay live, nothing is written from unauthenticated bytes, and
    the engine keeps serving (no background error)."""
    _tampered_input_quarantines_and_aborts(route, skew=0.3)  # in a data block


@pytest.mark.parametrize("route", ["local", "offloaded"])
def test_compaction_over_an_input_tampered_chunks_in_quarantines_and_aborts(route):
    """The same for an input larger than one chunk (five blocks read as
    2 + 2 + 1), the bad block the second of its run: ``sst_path`` is stamped
    on the failure whichever block of a run it came from."""
    _tampered_input_quarantines_and_aborts(route, skew=0.6, chunk_size=1200)


def _tampered_input_quarantines_and_aborts(route, skew, **engine):
    env, db = _three_parked_l0_files(
        route, InMemoryKDS(), overlapping_key, **engine,
    )
    try:
        inputs = _sst_paths(env, "/adv")
        _flip_payload_byte(env, inputs[0], skew=skew)
        _release_compaction(db)

        snap = db.stats_snapshot()
        assert snap["integrity.compaction_auth_aborts"] == 1
        assert snap["integrity.quarantines"] == 1
        assert [f"/adv/{n:06d}.sst" for n in db.quarantined_files()] == inputs[:1]
        assert db.health()["reason"] == "quarantined-sst"
        # The job left no trace: same live files, no half-written output.
        assert _sst_paths(env, "/adv") == inputs

        # No bg_error: writes, flushes and reads of clean files carry on.
        db.put(b"after", b"still-writable")
        db.flush()
        assert db.get(b"after") == b"still-writable"
        assert db.get(b"key-1-0042") == b"value-0042"
    finally:
        db.close()


@pytest.mark.parametrize("fault", ["failed-tag", "kds-outage"])
@pytest.mark.parametrize("route", ["local", "offloaded"])
def test_aborted_merge_leaves_no_output_file_and_no_dek_behind(route, fault):
    """A merge that dies after finishing some outputs deletes them and
    retires their DEKs -- and the DEK of the output it was still building --
    before the error goes on: no SST outside the live set, no DEK without a
    file, whether the fault is a bad block late in an input or the KDS
    refusing the second output's DEK."""
    kds = _OutageAfterGrants(InMemoryKDS())
    env, db = _three_parked_l0_files(
        route, kds,
        # Interleaved: the merge draws on all three inputs in step, so a bad
        # block late in the first comes after most of the job is written.
        lambda batch, i: b"key-%04d-%d" % (i, batch),
        # Each input spans several chunks: the bad one comes late.
        keys_per_file=400, target_file_size=2048, chunk_size=2048,
    )
    try:
        merger = (db.options.compaction_service or db).provider
        live_before = _sst_paths(env, "/adv")
        deks_before = kds.live_dek_count()
        granted_before = merger.deks_provisioned
        if fault == "failed-tag":
            _flip_payload_byte(env, live_before[0], skew=0.8)
        else:
            kds.grants_left = 1  # the first output's DEK is the last granted
        _release_compaction(db)
        if fault == "kds-outage":
            kds.come_up()  # retires refused meanwhile were queued, not lost
            merger.key_client.drain_pending_retires()

        # The fault hit a merge that had outputs to lose.
        granted = merger.deks_provisioned - granted_before
        assert granted >= 3 if fault == "failed-tag" else granted == 1
        live = sorted(f"/adv/{meta.number:06d}.sst" for __, meta in db.live_files())
        assert _sst_paths(env, "/adv") == live == live_before
        assert kds.live_dek_count() == deks_before
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Substitution: authentic bytes under the wrong name.  Every unit of a sealed
# file verifies under the file's own DEK wherever the file is put, so a tag
# cannot tell; what the MANIFEST names for the file number must.
# ---------------------------------------------------------------------------


def _three_versions_of_the_same_keys(route="local"):
    """Files 1..3 (oldest first) hold ``gen-0``, ``gen-1``, ``gen-2`` of the
    same 100 keys; nothing has been read, so no reader is cached."""
    kds, counter = InMemoryKDS(), MemoryTrustedCounter()
    env, db = _three_parked_l0_files(
        route, kds, lambda batch, i: b"key-%04d" % i, counter=counter,
        value=lambda batch, i: b"gen-%d-%04d" % (batch, i),
    )
    return env, kds, counter, db


def _reader(env, kds, counter=None):
    options = _options(env, counter)
    provider = ShieldOptions(
        kds=kds, scheme=_AEAD_SCHEME, server_id="reader-1"
    ).build_provider()
    return ReadOnlyInstance("/adv", options, provider=provider)


def _newest_replaced_by_its_sibling(env):
    """The adversary's move: the newest file's name, the middle file's bytes."""
    oldest, middle, newest = _sst_paths(env, "/adv")
    env.write_file(newest, env.read_file(middle))
    return newest


@pytest.mark.parametrize("read", ["get", "scan"])
def test_sibling_substitution_is_never_a_value_for_the_db(read):
    env, kds, counter, db = _three_versions_of_the_same_keys()
    newest = _newest_replaced_by_its_sibling(env)
    for attempt in ("cold", "reopened"):
        with pytest.raises(AuthenticationError):
            if read == "get":
                assert db.get(b"key-0001") == b"gen-2-0001"
            else:
                assert db.scan(b"key-0001", b"key-0003")[0][1] == b"gen-2-0001"
        assert [f"/adv/{n:06d}.sst" for n in db.quarantined_files()] == [newest]
        assert db.health()["reason"] == "quarantined-sst"
        db.close()
        # The file set is the one the counter anchors, so the freshness gate
        # passes; the substitution must still be caught at the first open.
        db = open_shield_db("/adv", _shield(kds), _options(env, counter))
    db.close()


@pytest.mark.parametrize("read", ["get", "scan"])
def test_sibling_substitution_is_never_a_value_for_a_readonly_instance(read):
    env, kds, counter, db = _three_versions_of_the_same_keys()
    newest = _newest_replaced_by_its_sibling(env)
    with db, _reader(env, kds, counter) as readonly:
        with pytest.raises(AuthenticationError):
            if read == "get":
                assert readonly.get(b"key-0001") == b"gen-2-0001"
            else:
                assert readonly.scan(b"key-0001")[0][1] == b"gen-2-0001"
        quarantined = readonly.quarantined_files()
        assert [f"/adv/{n:06d}.sst" for n in quarantined] == [newest]
        assert readonly.stats.snapshot()["integrity.quarantines"] == 1


def test_two_live_ssts_swapped_is_never_a_value():
    env, kds, counter, db = _three_versions_of_the_same_keys()
    oldest, middle, newest = _sst_paths(env, "/adv")
    honest_oldest, honest_newest = env.read_file(oldest), env.read_file(newest)
    env.write_file(oldest, honest_newest)
    env.write_file(newest, honest_oldest)

    def quarantined(store):
        return [f"/adv/{n:06d}.sst" for n in store.quarantined_files()]

    with db, _reader(env, kds, counter) as readonly:
        for store in (db, readonly):
            with pytest.raises(AuthenticationError):
                assert store.get(b"key-0001") == b"gen-2-0001"
            with pytest.raises(AuthenticationError):
                assert store.scan(b"key-0001")[0][1] == b"gen-2-0001"
            assert quarantined(store) == [newest]  # the first one reached
        # With the newest put right, gets stop there -- and the other half of
        # the swap is still caught by the first read that reaches it.
        env.write_file(newest, honest_newest)
        for store in (db, readonly):
            assert store.get(b"key-0001") == b"gen-2-0001"
            with pytest.raises(AuthenticationError):
                store.scan(b"key-0001")
            assert quarantined(store) == [oldest]


@pytest.mark.parametrize("route", ["local", "offloaded"])
def test_compaction_does_not_launder_a_substituted_input(route):
    """A merge -- forced here, or the picker's on a worker with its own KDS
    identity -- must not rewrite the stale sibling into a fresh output."""
    env, kds, counter, db = _three_versions_of_the_same_keys(route)
    try:
        live_before = _sst_paths(env, "/adv")
        deks_before = kds.live_dek_count()
        newest = _newest_replaced_by_its_sibling(env)
        if route == "local":
            with pytest.raises(AuthenticationError):
                db.force_compaction()
        else:
            _release_compaction(db)
            snap = db.stats_snapshot()
            assert snap["integrity.compaction_auth_aborts"] == 1
            assert db.options.compaction_service.stats.snapshot().get(
                "service.jobs", 0
            ) == 0
        assert [f"/adv/{n:06d}.sst" for n in db.quarantined_files()] == [newest]
        live = sorted(f"/adv/{meta.number:06d}.sst" for __, meta in db.live_files())
        assert _sst_paths(env, "/adv") == live == live_before  # nothing installed
        assert kds.live_dek_count() == deks_before  # nothing stranded
    finally:
        db.close()


class _FetchLog(InMemoryKDS):
    """Records the DEK-ID of every fetch."""

    def __init__(self):
        super().__init__()
        self.fetched = []

    def fetch(self, server_id, dek_id):
        self.fetched.append(dek_id)
        return super().fetch(server_id, dek_id)


def _a_retired_file_under_a_live_name(route="local"):
    """Three versions of the same keys merged by ``force_compaction()``
    (which retires all three DEKs), three more flushed and parked in L0;
    then the oldest, retired file's bytes go over the newest live file.
    Returns the store, that file's path and the retired DEK-ID, with the
    KDS's fetch log cleared."""
    kds, counter = _FetchLog(), MemoryTrustedCounter()
    env, db = _three_parked_l0_files(
        route, kds, lambda batch, i: b"key-%04d" % i, counter=counter,
        value=lambda batch, i: b"gen-%d-%04d" % (batch, i),
    )
    retired_bytes = env.read_file(_sst_paths(env, "/adv")[0])
    db.force_compaction()
    for generation in range(3, 6):
        for i in range(100):
            db.put(b"key-%04d" % i, b"gen-%d-%04d" % (generation, i))
        db.flush()
    db.wait_for_compaction()
    retired = decode_envelope(retired_bytes[:MAX_ENVELOPE_SIZE]).dek_id
    assert not kds.knows(retired)
    victim = _sst_paths(env, "/adv")[-1]  # the newest flush: read first
    env.write_file(victim, retired_bytes)
    kds.fetched.clear()
    return env, kds, counter, db, victim, retired


def test_a_retired_file_under_a_live_name_is_tampering_for_the_db():
    """Not ``NotFoundError: unknown or retired DEK`` after nine KDS round
    trips, with the store reported healthy: the envelope names a DEK the
    MANIFEST does not, so the open fails before any key is asked for."""
    env, kds, counter, db, victim, retired = _a_retired_file_under_a_live_name()
    for attempt in ("cold", "reopened"):
        with pytest.raises(AuthenticationError):
            assert db.get(b"key-0001") == b"gen-5-0001"
        assert [f"/adv/{n:06d}.sst" for n in db.quarantined_files()] == [victim]
        assert db.health()["reason"] == "quarantined-sst"
        assert retired not in kds.fetched
        db.close()
        db = open_shield_db("/adv", _shield(kds), _options(env, counter))
    db.close()


def test_a_retired_file_under_a_live_name_is_tampering_for_a_readonly_instance():
    env, kds, counter, db, victim, retired = _a_retired_file_under_a_live_name()
    with db, _reader(env, kds, counter) as readonly:
        with pytest.raises(AuthenticationError):
            assert readonly.get(b"key-0001") == b"gen-5-0001"
        quarantined = readonly.quarantined_files()
        assert [f"/adv/{n:06d}.sst" for n in quarantined] == [victim]
        assert readonly.stats.snapshot()["integrity.quarantines"] == 1
    assert retired not in kds.fetched


@pytest.mark.parametrize("route", ["local", "offloaded"])
def test_a_merge_over_a_retired_file_under_a_live_name_quarantines_it(route):
    env, kds, counter, db, victim, retired = _a_retired_file_under_a_live_name(
        route
    )
    try:
        live_before = _sst_paths(env, "/adv")
        deks_before = kds.live_dek_count()
        _release_compaction(db)
        assert db.stats_snapshot()["integrity.compaction_auth_aborts"] == 1
        assert [f"/adv/{n:06d}.sst" for n in db.quarantined_files()] == [victim]
        assert _sst_paths(env, "/adv") == live_before  # nothing installed
        assert kds.live_dek_count() == deks_before  # nothing stranded
        assert retired not in kds.fetched
    finally:
        db.close()


def test_substituted_file_put_back_heals():
    env, kds, counter, db = _three_versions_of_the_same_keys()
    with db:
        honest = env.read_file(_sst_paths(env, "/adv")[2])
        newest = _newest_replaced_by_its_sibling(env)
        with pytest.raises(AuthenticationError):
            db.get(b"key-0001")
        env.write_file(newest, honest)
        assert db.get(b"key-0001") == b"gen-2-0001"
        assert db.quarantined_files() == []


def test_healed_quarantine_resumes_compaction():
    """A quarantined file is out of the picker's reach; the clean read that
    lifts the mark puts it back, and the merge that was due all along runs
    -- nobody has to flush or ask for it."""
    env, db = _three_parked_l0_files(
        "local", InMemoryKDS(), overlapping_key
    )
    with db:
        tampered = _sst_paths(env, "/adv")[0]
        honest = env.read_file(tampered)
        _flip_payload_byte(env, tampered, skew=0.3)
        _release_compaction(db)  # aborts and quarantines; the trigger stays 3
        assert len(db.quarantined_files()) == 1
        assert db.num_files_at_level(0) == 3
        env.write_file(tampered, honest)
        assert db.get(b"key-0-0042") == b"value-0042"
        assert db.quarantined_files() == []
        wait_until(db, lambda: db.num_files_at_level(0) < 3)


# ---------------------------------------------------------------------------
# Rollback against a non-writer
# ---------------------------------------------------------------------------


def _manifest_path(env):
    return "/adv/" + env.read_file("/adv/CURRENT").decode().strip()


def test_manifest_cut_back_under_a_readonly_instance_raises_rollback():
    """A MANIFEST truncated to an earlier, validly sealed prefix names only
    the first file: every tag verifies, every DEK resolves, and the values
    are three generations old.  Only the counter can tell."""
    env, kds, counter = MemEnv(), InMemoryKDS(), MemoryTrustedCounter()
    options = _options(env, counter)
    options.level0_file_num_compaction_trigger = 100
    with open_shield_db("/adv", _shield(kds), options) as db:
        sealed_prefix = None
        for generation in range(3):
            for i in range(100):
                db.put(b"key-%04d" % i, b"gen-%d-%04d" % (generation, i))
            db.flush()
            db.wait_for_compaction()  # the flush's WAL is gone: no DEK to miss
            if sealed_prefix is None:
                sealed_prefix = env.read_file(_manifest_path(env))
        honest = env.read_file(_manifest_path(env))
        assert honest.startswith(sealed_prefix) and honest != sealed_prefix

        with _reader(env, kds, counter) as readonly:
            assert readonly.get(b"key-0001") == b"gen-2-0001"
            env.write_file(_manifest_path(env), sealed_prefix)
            with pytest.raises(RollbackError):
                readonly.refresh()
            assert readonly.get(b"key-0001") == b"gen-2-0001"  # view unchanged
            with pytest.raises(RollbackError):
                _reader(env, kds, counter)
            # Without the counter there is nothing to check against: this is
            # the silent stale read the gate exists for.
            with _reader(env, kds) as unanchored:
                assert unanchored.get(b"key-0001") == b"gen-0-0001"
            env.write_file(_manifest_path(env), honest)
            readonly.refresh()
            assert readonly.get(b"key-0001") == b"gen-2-0001"


def test_reader_opened_inside_the_writers_torn_window_still_opens():
    """Counter-first ordering: between the counter's advance and the MANIFEST
    record, storage is one transition behind the anchor.  A reader that lands
    there sees ``prev_root`` -- legitimate, and it must not advance anything."""
    env, kds, counter = MemEnv(), InMemoryKDS(), MemoryTrustedCounter()
    seen = {}

    def open_a_reader():
        SYNC.clear_callback(SP_COUNTER_AFTER_PERSIST)
        before = counter.read()
        with _reader(env, kds, counter) as readonly:
            seen["value"] = readonly.get(b"key-0001")
            seen["checks"] = readonly.stats.snapshot()["integrity.freshness_checks"]
        seen["advanced"] = counter.read() != before

    options = _options(env, counter)
    options.level0_file_num_compaction_trigger = 100
    shield = _shield(kds, wal_buffer_size=0)
    with open_shield_db("/adv", shield, options) as db:
        for i in range(100):
            db.put(b"key-%04d" % i, b"gen-0-%04d" % i)
        db.flush()
        db.put(b"key-0001", b"gen-1-0001")
        SYNC.set_callback(SP_COUNTER_AFTER_PERSIST, open_a_reader)
        SYNC.enable()
        try:
            db.flush()
        finally:
            SYNC.clear()
    # One flush behind in the MANIFEST, but the WAL still holds the write.
    assert seen == {"value": b"gen-1-0001", "checks": 1, "advanced": False}


class _MovingCounter(MemoryTrustedCounter):
    """Runs ``between`` just before a read returns: a live writer's moves
    between a reader's MANIFEST read and its counter read."""

    between = None
    reads = 0

    def read(self):
        self.reads += 1
        if self.between is not None:
            self.between()
        return super().read()


def test_refresh_racing_a_live_writer_rereads_before_believing_a_mismatch():
    env, kds, counter = MemEnv(), InMemoryKDS(), _MovingCounter()
    options = _options(env, counter)
    options.level0_file_num_compaction_trigger = 100
    with open_shield_db("/adv", _shield(kds), options) as db:
        generation = iter(range(1, 100))

        def two_transitions():
            for __ in range(2):
                db.put(b"key", b"gen-%d" % next(generation))
                db.flush()

        def twice_then_quiet():
            counter.between = None
            two_transitions()

        db.put(b"key", b"gen-0")
        db.flush()
        with _reader(env, kds, counter) as readonly:
            # The MANIFEST it read is two transitions behind the counter it
            # then reads: not a rollback, and a second look says so.
            counter.between, counter.reads = twice_then_quiet, 0
            readonly.refresh()
            assert counter.reads == 2
            assert readonly.get(b"key") == b"gen-2"
            # Bounded: a store that is behind at every look is rolled back
            # as far as a reader can tell.
            counter.between, counter.reads = two_transitions, 0
            with pytest.raises(RollbackError):
                readonly.refresh()
            assert counter.reads == 4
            counter.between = None
