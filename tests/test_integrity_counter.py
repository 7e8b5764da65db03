"""Unit tests for the freshness substrate: Merkle roots, trusted
counters, and the freshness anchor's protocol (including the torn-update
window exercised via sync points)."""

import pytest

from repro.env.mem import MemEnv
from repro.errors import CorruptionError, RollbackError
from repro.integrity import (
    EMPTY_ROOT,
    FRESH,
    INITIALIZED,
    ROOT_SIZE,
    TORN_RECOVERED,
    FileTrustedCounter,
    FreshnessAnchor,
    MemoryTrustedCounter,
    leaf_hash,
    merkle_root,
)
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.lsm.version import FileMetadata, Version
from repro.shield import ShieldOptions, open_shield_db
from repro.util.syncpoint import SYNC


def _meta(number, smallest=b"a", largest=b"z", size=100):
    return FileMetadata(
        number=number,
        size=size,
        smallest=smallest,
        largest=largest,
        smallest_seq=1,
        largest_seq=9,
        num_entries=5,
        dek_id=f"dek-{number}",
    )


def _version(placement):
    """Build a Version from {level: [FileMetadata, ...]}."""
    version = Version(7)
    for level, metas in placement.items():
        version.levels[level] = list(metas)
    return version


# --------------------------------------------------------------------------
# Merkle root
# --------------------------------------------------------------------------


def test_empty_version_has_empty_root():
    assert merkle_root(_version({})) == EMPTY_ROOT
    assert len(EMPTY_ROOT) == ROOT_SIZE


def test_root_deterministic_and_order_independent():
    a, b, c = _meta(1), _meta(2), _meta(3)
    one = merkle_root(_version({0: [a, b], 1: [c]}))
    two = merkle_root(_version({0: [b, a], 1: [c]}))
    assert one == two
    assert len(one) == ROOT_SIZE


def test_root_binds_file_set_and_placement():
    a, b = _meta(1), _meta(2)
    base = merkle_root(_version({0: [a, b]}))
    # Dropping a file, changing metadata, or moving a file across levels
    # all change the root -- each is a distinct rollback/tamper shape.
    assert merkle_root(_version({0: [a]})) != base
    assert merkle_root(_version({0: [a, _meta(2, size=101)]})) != base
    assert merkle_root(_version({0: [a], 1: [b]})) != base


def test_leaf_hash_domain_separated_from_root():
    meta = _meta(7)
    single = merkle_root(_version({0: [meta]}))
    # A one-file root is its leaf hash promoted, but a forged "leaf" equal
    # to some interior node must not collide: person strings differ.
    assert single == leaf_hash(0, meta)
    assert leaf_hash(0, meta) != leaf_hash(1, meta)


# --------------------------------------------------------------------------
# Counter backends
# --------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: MemoryTrustedCounter(),
    lambda: FileTrustedCounter(MemEnv(), "/trust/counter"),
])
def test_counter_advance_semantics(make):
    counter = make()
    assert counter.read() is None
    first = counter.advance(b"root-one")
    assert (first.value, first.root, first.prev_root) == (1, b"root-one", b"")
    second = counter.advance(b"root-two")
    assert (second.value, second.root, second.prev_root) == (
        2,
        b"root-two",
        b"root-one",
    )
    assert counter.read() == second


def test_file_counter_survives_reopen():
    env = MemEnv()
    FileTrustedCounter(env, "/trust/counter").advance(b"anchor")
    state = FileTrustedCounter(env, "/trust/counter").read()
    assert state.value == 1
    assert state.root == b"anchor"


def test_file_counter_refuses_corruption():
    env = MemEnv()
    counter = FileTrustedCounter(env, "/trust/counter")
    counter.advance(b"anchor")
    raw = bytearray(env.read_file("/trust/counter"))
    raw[-1] ^= 0xFF  # smash the CRC
    env.write_file("/trust/counter", bytes(raw))
    with pytest.raises(CorruptionError):
        counter.read()
    env.write_file("/trust/counter", b"JUNK" + bytes(raw[4:]))
    with pytest.raises(CorruptionError):
        counter.read()


def test_memory_counter_fork_is_independent():
    counter = MemoryTrustedCounter()
    counter.advance(b"one")
    fork = counter.fork()
    counter.advance(b"two")
    assert fork.read().root == b"one"
    assert counter.read().root == b"two"


# --------------------------------------------------------------------------
# The anchor's protocol
# --------------------------------------------------------------------------


#: Three store states: three roots.
R1, R2, OLD = (_version({0: [_meta(n)]}) for n in (1, 2, 3))


def test_protocol_dispositions():
    """A writer verifies, then its first MANIFEST write advances: it binds a
    never-used counter and re-anchors a torn one; a fresh one stays put."""
    counter = MemoryTrustedCounter()
    anchor = FreshnessAnchor(counter)
    assert anchor.verify(R1) == INITIALIZED
    anchor.advance(R1)
    assert anchor.verify(R1) == FRESH
    anchor.advance(R1)
    assert counter.read().value == 1
    counter.advance(merkle_root(R2))  # counter ran ahead: the torn window
    assert anchor.verify(R1) == TORN_RECOVERED
    anchor.advance(R1)
    assert anchor.verify(R1) == FRESH
    with pytest.raises(RollbackError):
        anchor.verify(OLD)


def test_read_only_verify_classifies_the_same_and_never_advances():
    counter = MemoryTrustedCounter()
    anchor = FreshnessAnchor(counter)
    assert anchor.verify(R1) == INITIALIZED  # nothing anchored yet
    assert counter.read() is None
    counter.advance(merkle_root(R1))
    counter.advance(merkle_root(R2))
    before = counter.read()
    assert anchor.verify(R2) == FRESH
    assert anchor.verify(R1) == TORN_RECOVERED  # a writer mid-transition
    with pytest.raises(RollbackError):
        anchor.verify(OLD)
    assert counter.read() == before


def test_rollback_error_names_counter_value():
    counter = MemoryTrustedCounter()
    counter.advance(merkle_root(R1))
    with pytest.raises(RollbackError, match="value 1"):
        FreshnessAnchor(counter).verify(OLD)


def test_the_floor_rides_in_the_root_and_a_bare_root_has_none():
    """Sync first: the floor moves only with a synced group, one counter
    write each, and MANIFEST edits carry it.  A counter as written before
    WALs were named -- a bare 32-byte root -- anchors no WAL bytes."""
    counter = MemoryTrustedCounter()
    anchor = FreshnessAnchor(counter)
    anchor.verify(R1)
    anchor.advance(R1)
    assert counter.read().root == merkle_root(R1)
    anchor.synced(7, 120)
    anchor.synced(7, 120)  # nothing new synced: no write
    assert counter.read().value == 2
    anchor.advance(R2)
    reader = FreshnessAnchor(counter)
    assert reader.verify(R2) == FRESH
    assert (reader.floor(7), reader.floor(8)) == (120, 0)
    assert reader.verify(R1) == TORN_RECOVERED  # the previous state's floor
    assert reader.floor(7) == 120
    assert FreshnessAnchor(None).verify(R1) is None


# --------------------------------------------------------------------------
# Torn counter update, end to end through the engine's sync points
# --------------------------------------------------------------------------


def _open(env, kds, counter):
    return open_shield_db(
        "/t",
        ShieldOptions(kds=kds),
        Options(env=env, write_buffer_size=1024, block_size=512,
                trusted_counter=counter),
    )


def test_torn_counter_update_recovers():
    """Kill the process between the counter advance and the manifest
    write: the counter is one ahead of storage, and the next open must
    re-anchor instead of crying rollback."""
    env = MemEnv()
    kds = InMemoryKDS()
    counter = MemoryTrustedCounter()
    db = _open(env, kds, counter)
    db.put(b"k", b"v1")
    db.flush()
    baseline = counter.read().value
    fork = {}

    def kill():
        if "env" not in fork:  # only the first hit is the crash instant
            fork["env"] = env.fork(durable_only=False)
            fork["kds"] = kds.fork()
            fork["counter"] = counter.fork()
        raise RuntimeError("injected kill after counter advance")

    SYNC.clear()
    SYNC.set_callback("counter:after_persist", kill)
    SYNC.enable()
    try:
        with pytest.raises(Exception):
            db.put(b"k", b"v2")
            db.flush()
    finally:
        SYNC.clear()
        db.close()

    # The crash image's counter really is ahead of its storage.
    assert fork["counter"].read().value == baseline + 1
    recovered = _open(fork["env"], fork["kds"], fork["counter"])
    try:
        assert recovered.get(b"k") is not None
        assert recovered.health()["state"] == "healthy"
        # Recovery re-anchored: a second open of the same image is fresh.
    finally:
        recovered.close()


def test_counter_sync_points_declared():
    declared = set(SYNC.declared())
    assert "counter:before_persist" in declared
    assert "counter:after_persist" in declared
