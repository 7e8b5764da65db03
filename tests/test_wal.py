"""Tests for WAL framing, encryption granularity, buffering, and replay."""

import pytest

from repro.crypto.cipher import CRYPTO_STATS, generate_key, generate_nonce, scheme_id
from repro.env.mem import MemEnv
from repro.lsm.filecrypto import (
    FileCrypto,
    PlaintextCryptoProvider,
    SingleKeyCryptoProvider,
)
from repro.lsm.wal import WALWriter, frame_record, read_wal_records


def _plain_crypto():
    from repro.lsm.filecrypto import NULL_CRYPTO

    return NULL_CRYPTO


def _encrypted_crypto():
    return FileCrypto(
        scheme_id("shake-ctr"), "dek-test", generate_key("shake-ctr"),
        generate_nonce("shake-ctr"),
    )


def test_plaintext_roundtrip():
    env = MemEnv()
    writer = WALWriter(env, "/db/000001.log", _plain_crypto())
    payloads = [b"first", b"second", b"x" * 1000]
    for payload in payloads:
        writer.add_record(payload)
    writer.close()
    assert read_wal_records(env, "/db/000001.log", PlaintextCryptoProvider()) == payloads


def test_encrypted_roundtrip():
    env = MemEnv()
    key = generate_key("shake-ctr")
    provider = SingleKeyCryptoProvider("shake-ctr", key)
    writer = WALWriter(env, "/db/1.log", provider.for_new_file(1, "/db/1.log"))
    writer.add_record(b"secret-record-alpha")
    writer.add_record(b"secret-record-beta")
    writer.close()
    raw = env.read_file("/db/1.log")
    assert b"secret-record-alpha" not in raw
    records = read_wal_records(env, "/db/1.log", provider)
    assert records == [b"secret-record-alpha", b"secret-record-beta"]


def test_wrong_key_yields_no_records():
    env = MemEnv()
    writer_provider = SingleKeyCryptoProvider("shake-ctr", b"a" * 32)
    writer = WALWriter(env, "/1.log", writer_provider.for_new_file(1, "/1.log"))
    writer.add_record(b"data")
    writer.close()
    reader_provider = SingleKeyCryptoProvider("shake-ctr", b"b" * 32)
    # Decryption garbles the frames; the CRC gate drops everything.
    assert read_wal_records(env, "/1.log", reader_provider) == []


def test_unbuffered_encrypts_per_record():
    env = MemEnv()
    writer = WALWriter(env, "/1.log", _encrypted_crypto(), buffer_size=0)
    before = CRYPTO_STATS.counter("crypto.context_inits").value
    for i in range(10):
        writer.add_record(b"record-%d" % i)
    inits = CRYPTO_STATS.counter("crypto.context_inits").value - before
    assert inits == 10


def test_buffered_amortizes_encryption():
    env = MemEnv()
    writer = WALWriter(env, "/1.log", _encrypted_crypto(), buffer_size=512)
    before = CRYPTO_STATS.counter("crypto.context_inits").value
    for i in range(10):
        writer.add_record(b"x" * 100)  # 10 * ~109B frames -> 2-3 flushes
    writer.close()
    inits = CRYPTO_STATS.counter("crypto.context_inits").value - before
    assert 1 <= inits < 10
    assert writer.buffer_flushes == inits


def test_buffered_records_survive_close():
    env = MemEnv()
    crypto = _encrypted_crypto()
    provider = PlaintextCryptoProvider()

    class _P(PlaintextCryptoProvider):
        def for_existing_file(self, envelope, path):
            return crypto

    writer = WALWriter(env, "/1.log", crypto, buffer_size=10_000)
    writer.add_record(b"buffered-only")
    assert writer.buffered_bytes > 0
    writer.close()  # flushes the buffer
    assert read_wal_records(env, "/1.log", _P()) == [b"buffered-only"]


def test_process_crash_loses_buffered_tail():
    env = MemEnv()
    crypto = _encrypted_crypto()

    class _P(PlaintextCryptoProvider):
        def for_existing_file(self, envelope, path):
            return crypto

    writer = WALWriter(env, "/1.log", crypto, buffer_size=120)
    writer.add_record(b"a" * 150)   # exceeds buffer -> flushed
    writer.add_record(b"tail")      # stays in the app buffer
    writer.simulate_process_crash()
    records = read_wal_records(env, "/1.log", _P())
    assert records == [b"a" * 150]


def test_truncated_tail_tolerated():
    env = MemEnv()
    writer = WALWriter(env, "/1.log", _plain_crypto())
    writer.add_record(b"complete-record")
    writer.add_record(b"to-be-torn")
    writer.close()
    # Tear the last few bytes off, as an interrupted append would.
    full = env.read_file("/1.log")
    env.write_file("/1.log", full[:-3])
    records = read_wal_records(env, "/1.log", PlaintextCryptoProvider())
    assert records == [b"complete-record"]


def test_corrupt_middle_stops_replay():
    env = MemEnv()
    writer = WALWriter(env, "/1.log", _plain_crypto())
    writer.add_record(b"one")
    writer.add_record(b"two")
    writer.close()
    raw = bytearray(env.read_file("/1.log"))
    raw[-2] ^= 0xFF  # flip a bit inside record "two"
    env.write_file("/1.log", bytes(raw))
    assert read_wal_records(env, "/1.log", PlaintextCryptoProvider()) == [b"one"]


def test_sync_writes_flag():
    """Only ``sync()`` syncs: the DB's commit decides when (one fsync a
    group, however the sync was asked for)."""
    for buffer_size in (0, 512):
        env = MemEnv()
        writer = WALWriter(env, "/1.log", _plain_crypto(), buffer_size=buffer_size)
        writer.add_record(b"r")
        assert env.sync_count == 0
        writer.sync()
        assert env.sync_count == 1
        assert writer.synced == len(frame_record(b"r"))  # payload bytes
        env.crash_system()
        assert read_wal_records(env, "/1.log", PlaintextCryptoProvider()) == [b"r"]


def test_unsynced_buffered_io_lost_on_system_crash():
    env = MemEnv()
    writer = WALWriter(env, "/1.log", _plain_crypto())
    writer.add_record(b"r")
    env.crash_system()
    # Even the envelope is gone: nothing was synced.
    assert env.file_size("/1.log") == 0
