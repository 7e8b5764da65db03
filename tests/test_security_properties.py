"""Threat-model scenario tests (Sections 3.1 and 5.5).

Each test plays one of the paper's adversaries against a live database and
checks the promised guarantee holds in this implementation.
"""

import collections
import math

import pytest

from repro.crypto.cipher import generate_key
from repro.encfs.env import EncryptedEnv
from repro.env.mem import MemEnv
from repro.errors import AuthorizationError, NotFoundError
from repro.keys.kds import InMemoryKDS, SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.envelope import MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.options import Options
from repro.shield import ShieldOptions, dek_inventory, open_shield_db
from repro.util.clock import VirtualClock

_SECRET = b"TOP-SECRET-PAYLOAD"


def _options(env):
    return Options(env=env, write_buffer_size=4 * 1024, block_size=1024)


#: The adversaries play against the stream cipher and its AEAD alike.
SCHEMES = ("shake-ctr", "shake-etm")


def _loaded_shield_db(env, kds, scheme, n=600):
    db = open_shield_db(
        "/sec", ShieldOptions(kds=kds, scheme=scheme), _options(env)
    )
    for i in range(n):
        db.put(b"key-%04d" % i, _SECRET + b"-%04d" % i)
    db.flush()
    return db


def _entropy_per_byte(data: bytes) -> float:
    counts = collections.Counter(data)
    total = len(data)
    return -sum(
        (count / total) * math.log2(count / total) for count in counts.values()
    )


def test_scenario1_storage_media_compromise():
    """An attacker steals the storage media: every user byte is ciphertext
    with near-maximal entropy."""
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = _loaded_shield_db(env, kds, scheme)
        try:
            for name in env.list_dir("/sec"):
                if name == "CURRENT":
                    continue
                raw = env.read_file(f"/sec/{name}")
                assert _SECRET not in raw
                # Skip the plaintext envelope; the payload must look random.
                payload = raw[MAX_ENVELOPE_SIZE:]
                if len(payload) > 2048:
                    assert _entropy_per_byte(payload) > 7.5
        finally:
            db.close()


def test_scenario2_unauthorized_user_with_fs_access():
    """A server user with filesystem access but no KDS authorization can
    read the DEK-IDs (they are public metadata) but cannot obtain keys."""
    env = MemEnv()
    clock = VirtualClock()
    kds = SimulatedKDS(clock=clock)
    kds.authorize_server("owner")
    db = open_shield_db(
        "/sec", ShieldOptions(kds=kds, server_id="owner"), _options(env)
    )
    try:
        for i in range(500):
            db.put(b"key-%04d" % i, _SECRET)
        db.flush()
        sst = next(n for n in env.list_dir("/sec") if n.endswith(".sst"))
        envelope = decode_envelope(env.read_file(f"/sec/{sst}")[:MAX_ENVELOPE_SIZE])
        assert envelope.dek_id  # the attacker CAN see this...
        with pytest.raises(AuthorizationError):
            kds.fetch("attacker-box", envelope.dek_id)  # ...but not use it
    finally:
        db.close()


def _attacker_recover(env, path: str, dek_key: bytes) -> bytes:
    """Everything an attacker holding one DEK can recover from one file.

    Stream-cipher schemes XOR the raw payload directly.  AEAD schemes have
    no seekable keystream -- the attacker's best move is to replay the SST
    reader with the stolen key, which either opens every sealed unit (the
    DEK's own file) or dies on the first tag check (any other file).
    """
    from repro.crypto.cipher import create_cipher, spec_for
    from repro.errors import CorruptionError
    from repro.lsm.filecrypto import make_file_crypto
    from repro.lsm.sst import SSTReader

    raw = env.read_file(path)
    envelope = decode_envelope(raw[:MAX_ENVELOPE_SIZE])
    if not spec_for(envelope.scheme_id).aead:
        return create_cipher(envelope.scheme_id, dek_key, envelope.nonce).xor_at(
            bytes(raw[envelope.header_size:]), 0
        )

    class _StolenKeyProvider:
        def for_existing_file(self, envl, _path):
            return make_file_crypto(envl.scheme_id, envl.dek_id, dek_key, envl.nonce)

    reader = None
    try:
        reader = SSTReader(env, path, _StolenKeyProvider(), _options(env))
        return b"".join(entry[-1] for entry in reader.entries())
    except CorruptionError:  # includes AuthenticationError: wrong key
        return b""
    finally:
        if reader is not None:
            reader.close()


def test_scenario3_dek_compromise_blast_radius():
    """A leaked DEK decrypts exactly one file; after compaction it decrypts
    nothing that still exists."""
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = _loaded_shield_db(env, kds, scheme, n=3000)
        try:
            inventory = dek_inventory(db)
            assert len(inventory) >= 2
            stolen = inventory[0]
            stolen_dek = kds.fetch("attacker", stolen.dek_id)

            # The stolen DEK decrypts its own file...
            own_path = f"/sec/{stolen.file_number:06d}.sst"
            assert _SECRET in _attacker_recover(env, own_path, stolen_dek.key)

            # ...but no other file.
            for record in inventory[1:]:
                other_path = f"/sec/{record.file_number:06d}.sst"
                assert _SECRET not in _attacker_recover(env, other_path, stolen_dek.key)

            # After compaction the compromised DEK is retired and its file gone.
            db.force_compaction()
            assert not kds.knows(stolen.dek_id)
            assert not env.file_exists(own_path)
        finally:
            db.close()


def test_single_dek_design_exposes_everything():
    """Contrast: under the instance-level design the same leak exposes the
    entire store (the paper's Section 4.2 trade-off)."""
    raw = MemEnv()
    instance_key = generate_key("shake-ctr")
    db = DB("/sec", _options(EncryptedEnv(raw, instance_key)))
    try:
        for i in range(500):
            db.put(b"key-%04d" % i, _SECRET)
        db.flush()
    finally:
        db.close()
    # The attacker stole the one instance DEK: every file opens.
    attacker_env = EncryptedEnv(raw, instance_key)
    sst_files = [n for n in raw.list_dir("/sec") if n.endswith(".sst")]
    assert sst_files
    for name in sst_files:
        assert _SECRET in attacker_env.read_file(f"/sec/{name}")


def test_wal_never_persists_plaintext_even_buffered():
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = open_shield_db(
            "/sec",
            ShieldOptions(kds=kds, scheme=scheme, wal_buffer_size=256),
            _options(env),
        )
        try:
            for i in range(100):
                db.put(b"key-%03d" % i, _SECRET)
            # Do NOT flush: data lives in WAL + memtable only.
            wal_files = [n for n in env.list_dir("/sec") if n.endswith(".log")]
            for name in wal_files:
                assert _SECRET not in env.read_file(f"/sec/{name}")
        finally:
            db.close()


def test_manifest_is_encrypted_too():
    """The MANIFEST carries key ranges (user data!) and is protected."""
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = open_shield_db(
            "/sec", ShieldOptions(kds=kds, scheme=scheme), _options(env)
        )
        try:
            db.put(b"patient-record-0001", b"v")
            db.flush()
            manifest = next(
                n for n in env.list_dir("/sec") if n.startswith("MANIFEST")
            )
            raw = env.read_file(f"/sec/{manifest}")
            assert b"patient-record-0001" not in raw
            envelope = decode_envelope(raw[:MAX_ENVELOPE_SIZE])
            assert envelope.encrypted
        finally:
            db.close()


def test_retired_deks_unfetchable_after_rotation():
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = _loaded_shield_db(env, kds, scheme, n=2000)
        try:
            before = {record.dek_id for record in dek_inventory(db)}
            db.force_compaction()
            for dek_id in before:
                with pytest.raises(NotFoundError):
                    kds.fetch("anyone", dek_id)
        finally:
            db.close()


def test_nonce_uniqueness_across_files():
    """CTR keystream reuse would be catastrophic: every file must carry a
    distinct (DEK, nonce) pair."""
    for scheme in SCHEMES:
        env = MemEnv()
        kds = InMemoryKDS()
        db = _loaded_shield_db(env, kds, scheme, n=2500)
        try:
            seen = set()
            for name in env.list_dir("/sec"):
                if name == "CURRENT":
                    continue
                envelope = decode_envelope(
                    env.read_file(f"/sec/{name}")[:MAX_ENVELOPE_SIZE]
                )
                pair = (envelope.dek_id, envelope.nonce)
                assert pair not in seen
                seen.add(pair)
        finally:
            db.close()
