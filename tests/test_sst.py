"""Tests for SST building and reading, plaintext and encrypted."""

import bisect
import random
import sys
import threading

import pytest

from repro.crypto.aead import derive_nonce
from repro.crypto.cipher import (
    CRYPTO_STATS,
    create_aead,
    create_cipher,
    generate_key,
    spec_for,
)
from repro.env.mem import MemEnv
from repro.env.metered import MeteredEnv
from repro.errors import CorruptionError, EncryptionError, InvalidArgumentError
from repro.lsm.db import DB
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE, TYPE_PUT
from repro.lsm.filecrypto import (
    PlaintextCryptoProvider,
    SingleKeyCryptoProvider,
    make_file_crypto,
)
from repro.lsm.envelope import FILE_KIND_SST
from repro.lsm.options import Options
from repro.lsm.sst import SSTBuilder, SSTReader
from repro.util.lru import LRUCache


def _build(env, provider, path="/db/000001.sst", n=500, options=None):
    options = options or Options()
    crypto = provider.for_new_file(FILE_KIND_SST, path)
    builder = SSTBuilder(env, path, crypto, options)
    for i in range(n):
        builder.add(b"key-%06d" % i, i + 1, TYPE_PUT, b"value-%06d" % i)
    return builder.finish(), options


def test_plaintext_build_and_get():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    info, options = _build(env, provider)
    assert info.num_entries == 500
    assert info.smallest_key == b"key-000000"
    assert info.largest_key == b"key-000499"
    reader = SSTReader(env, info.path, provider, options)
    assert reader.get(b"key-000123") == (TYPE_PUT, b"value-000123")
    assert reader.get(b"key-999999") is None
    assert reader.get(b"before") is None
    assert reader.num_entries == 500


def test_encrypted_build_hides_plaintext():
    env = MemEnv()
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    info, options = _build(env, provider)
    raw = env.read_file(info.path)
    assert b"value-000123" not in raw
    assert b"key-000123" not in raw
    reader = SSTReader(env, info.path, provider, options)
    assert reader.get(b"key-000123") == (TYPE_PUT, b"value-000123")


def test_wrong_key_fails_loudly():
    env = MemEnv()
    writer_provider = SingleKeyCryptoProvider("shake-ctr", b"a" * 32)
    info, options = _build(env, writer_provider)
    reader_provider = SingleKeyCryptoProvider("shake-ctr", b"b" * 32)
    with pytest.raises(CorruptionError):
        SSTReader(env, info.path, reader_provider, options)


def test_plaintext_provider_rejects_encrypted_file():
    env = MemEnv()
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    info, options = _build(env, provider)
    with pytest.raises(EncryptionError):
        SSTReader(env, info.path, PlaintextCryptoProvider(), options)


def test_dek_id_in_envelope_and_properties():
    env = MemEnv()
    provider = SingleKeyCryptoProvider(
        "shake-ctr", generate_key("shake-ctr"), dek_id="dek-sst-42"
    )
    info, options = _build(env, provider)
    assert info.dek_id == "dek-sst-42"
    reader = SSTReader(env, info.path, provider, options)
    assert reader.dek_id == "dek-sst-42"
    assert reader.properties["shield.dek_id"] == "dek-sst-42"


def test_entries_iteration_ordered():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    info, options = _build(env, provider, n=300)
    reader = SSTReader(env, info.path, provider, options)
    entries = list(reader.entries())
    assert len(entries) == 300
    assert entries == sorted(entries, key=lambda e: e[0])


def test_entries_from():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    info, options = _build(env, provider, n=100)
    reader = SSTReader(env, info.path, provider, options)
    tail = list(reader.entries_from(b"key-000090"))
    assert len(tail) == 10
    assert tail[0][0] == b"key-000090"


def test_deletes_stored():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    options = Options()
    crypto = provider.for_new_file(FILE_KIND_SST, "/1.sst")
    builder = SSTBuilder(env, "/1.sst", crypto, options)
    builder.add(b"a", 2, TYPE_DELETE, b"")
    builder.add(b"b", 1, TYPE_PUT, b"v")
    info = builder.finish()
    reader = SSTReader(env, "/1.sst", provider, options)
    assert reader.get(b"a") == (TYPE_DELETE, b"")
    assert reader.get(b"b") == (TYPE_PUT, b"v")


def test_out_of_order_add_rejected():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    builder = SSTBuilder(
        env, "/1.sst", provider.for_new_file(FILE_KIND_SST, "/1.sst"), Options()
    )
    builder.add(b"b", 1, TYPE_PUT, b"")
    with pytest.raises(InvalidArgumentError):
        builder.add(b"a", 2, TYPE_PUT, b"")
    # Same key must come newest (highest seq) first.
    builder.add(b"c", 5, TYPE_PUT, b"")
    with pytest.raises(InvalidArgumentError):
        builder.add(b"c", 7, TYPE_PUT, b"")


def test_empty_builder_rejected():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    builder = SSTBuilder(
        env, "/1.sst", provider.for_new_file(FILE_KIND_SST, "/1.sst"), Options()
    )
    with pytest.raises(InvalidArgumentError):
        builder.finish()


def test_block_cache_used():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    info, options = _build(env, provider, n=1000)
    cache = LRUCache(10 * 1024 * 1024)
    reader = SSTReader(env, info.path, provider, options, block_cache=cache)
    reader.get(b"key-000500")
    hits_before = cache.hits
    reader.get(b"key-000500")
    assert cache.hits == hits_before + 1


def test_corrupt_block_detected():
    env = MemEnv()
    provider = PlaintextCryptoProvider()
    info, options = _build(env, provider, n=200)
    raw = bytearray(env.read_file(info.path))
    raw[200] ^= 0xFF  # flip a bit inside some data block
    env.write_file(info.path, bytes(raw))
    reader = SSTReader(env, info.path, provider, options)
    with pytest.raises(CorruptionError):
        for key in (b"key-%06d" % i for i in range(200)):
            reader.get(key)


def test_multithreaded_chunked_encryption_matches_sequential():
    env = MemEnv()
    key = generate_key("shake-ctr")
    base_options = Options(encryption_chunk_size=1024, encryption_threads=1)
    threaded_options = Options(encryption_chunk_size=1024, encryption_threads=4)
    provider = SingleKeyCryptoProvider("shake-ctr", key)
    info_seq, _ = _build(env, provider, path="/seq.sst", options=base_options)
    info_thr, _ = _build(env, provider, path="/thr.sst", options=threaded_options)
    reader = SSTReader(env, "/thr.sst", provider, threaded_options)
    assert reader.get(b"key-000321") == (TYPE_PUT, b"value-000321")
    assert info_seq.num_entries == info_thr.num_entries


@pytest.mark.parametrize("scheme", ["shake-ctr", "shake-etm"])  # format v1, v2
def test_forwarded_entries_rebuild_the_same_file(scheme):
    """An SST rebuilt through add_encoded from another's raw_entries() is
    that file again, byte for byte, under the same DEK and nonce: forwarding
    stored entries changes nothing compaction writes."""
    spec = spec_for(scheme)
    key = bytes(range(spec.key_size))
    nonce = bytes(range(spec.nonce_size))
    env = MemEnv()
    options = Options(block_size=512)

    def builder(path):
        crypto = make_file_crypto(spec.scheme_id, "dek-pinned", key, nonce)
        return SSTBuilder(env, path, crypto, options)

    built = builder("/a.sst")
    seq = 1 << 21
    for i in range(400):
        user_key = b"key-%06d" % i
        for version in range(1 + i % 3):  # newest first, 1-3 versions
            seq -= 1
            if (i + version) % 7 == 0:
                built.add(user_key, seq, TYPE_DELETE, b"")
            else:
                built.add(user_key, seq, TYPE_PUT, b"v%d" % i * (1 + i % 40))
    built_info = built.finish()

    provider = SingleKeyCryptoProvider(scheme, key, dek_id="dek-pinned")
    reader = SSTReader(env, "/a.sst", provider, options)
    forwarded = builder("/b.sst")
    for user_key, inverted_seq, __, encoded in reader.raw_entries():
        forwarded.add_encoded(user_key, MAX_SEQUENCE - inverted_seq, encoded)
    forwarded_info = forwarded.finish()

    assert env.read_file("/b.sst") == env.read_file("/a.sst")
    forwarded_info.path = built_info.path
    assert forwarded_info == built_info
    assert list(SSTReader(env, "/b.sst", provider, options).entries()) == list(
        reader.entries()
    )


def _context_inits():
    return CRYPTO_STATS.counter("crypto.context_inits").value


def test_point_reads_share_the_readers_one_cipher_context():
    env = MemEnv()
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    info, options = _build(env, provider, n=2000)
    before = _context_inits()
    reader = SSTReader(env, info.path, provider, options)  # no block cache
    for i in range(0, 2000, 10):
        assert reader.get(b"key-%06d" % i) == (TYPE_PUT, b"value-%06d" % i)
    assert _context_inits() - before == 1


def _open_fresh(scheme, key, nonce, stored, offset):
    """``stored`` (a format v3 unit at payload ``offset``) opened through a
    context of its own: the unit's own stream under a fresh stream cipher,
    or an AEAD unit's own schedule."""
    if spec_for(scheme).aead:
        return create_aead(scheme, key, derive_nonce(nonce, offset)).open(stored)
    return create_cipher(scheme, key, nonce).xor_units([(stored, offset)])[0]


@pytest.mark.parametrize("scheme", [
    "shake-ctr", "aes-128-ctr", "chacha20",
    "shake-etm", "chacha20-poly1305", "aes-256-gcm",
])
def test_concurrent_block_reads_share_one_context_and_match_fresh_ones(scheme):
    """Eight threads, a switch interval short enough to preempt any step of
    a unit's open, one reader: every block equals a fresh open of its own,
    made before the threads start, and the threads build no context -- the
    file's one context (an AEAD key schedule) is shared, never rebuilt or
    disturbed."""
    env, key = MemEnv(), generate_key(scheme)
    provider = SingleKeyCryptoProvider(scheme, key)
    # A pure-Python cipher opens a block ~50x slower than SHAKE: fewer
    # blocks and reads keep it quick, and eight threads still race.
    pure_python = not scheme.startswith("shake")
    n, reads = (200, 10) if pure_python else (400, 40)
    info, options = _build(env, provider, n=n, options=Options(block_size=512))
    before = _context_inits()
    reader = SSTReader(env, info.path, provider, options)
    assert _context_inits() - before == 1  # footer, index, bloom, props
    stored = env.read_file(info.path)[reader._payload_base:]
    blocks = [(offset, size) for __, offset, size, ___ in reader._index]
    assert len(blocks) > 8
    expected = {  # each block's fresh open, once, before any thread runs
        offset: _open_fresh(
            scheme, key, reader.envelope.nonce, stored[offset:offset + size], offset,
        )
        for offset, size in blocks
    }
    wrong = []

    def read_blocks(seed):
        rng = random.Random(seed)
        for __ in range(reads):
            offset, size = rng.choice(blocks)
            if reader._read_payload(offset, size) != expected[offset]:
                wrong.append((seed, offset))

    threads = [threading.Thread(target=read_blocks, args=(s,)) for s in range(8)]
    before = _context_inits()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert _context_inits() - before == 0  # the threads build no context at all


@pytest.mark.parametrize(
    "forget", ["drop", "mark"], ids=["_drop_table", "_quarantine_table"]
)  # ids: the DB-level events (a dead file, a failed tag) behind each call
def test_a_reader_recreated_after_drop_or_quarantine_initialises_again(forget):
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    options = Options(env=MemEnv(), crypto_provider=provider, block_cache_size=0)
    with DB("/db", options) as db:
        for i in range(300):
            db.put(b"key-%06d" % i, b"value-%06d" % i)
        db.flush()
        ((__, meta),) = db.live_files()
        tables = db._tables
        db.get(b"key-000001")
        before = _context_inits()
        db.get(b"key-000002")
        assert _context_inits() == before  # the cached reader's context
        cached = tables.reader(meta)
        # The context dies with the reader that held the key ...
        getattr(tables, forget)(meta.number)
        # ... and the next reader of the same file pays one init of its own.
        fresh = tables.reader(meta)
        assert fresh is not cached
        assert fresh.get(b"key-000003") == (TYPE_PUT, b"value-000003")
        assert _context_inits() - before == 1


def test_a_block_miss_is_one_read_and_one_cipher_pass_of_its_stored_size():
    """The counters behind the benchmark's exact ``crypto.ctx_inits_per_op``
    and ``env.sst_read_ops_per_get``: under shake-ctr a cold point read of
    an open file reads its block once and ciphers exactly its stored bytes,
    with no context built; a warm one does neither."""
    env = MeteredEnv(MemEnv())
    provider = SingleKeyCryptoProvider("shake-ctr", generate_key("shake-ctr"))
    with DB("/db", Options(env=env, crypto_provider=provider)) as db:
        for i in range(1000):
            db.put(b"key-%06d" % i, b"v" * 100)
        db.flush()
        db.wait_for_compaction()
        assert db.get(b"key-000000") == b"v" * 100  # opens the file
        ((__, meta),) = db.live_files()
        reader = db._tables.reader(meta)
        block = bisect.bisect_left(reader._index_keys, b"key-000500")
        stored = reader._index[block][2]
        crypto = [CRYPTO_STATS.counter(name) for name in
                  ("crypto.ops", "crypto.bytes", "crypto.context_inits")]
        io = [env.stats.counter(name) for name in
              ("io.read.ops.sst", "io.read.bytes.sst")]

        def cost_of_get(key):
            before = [counter.value for counter in crypto + io]
            assert db.get(key) == b"v" * 100
            return [c.value - b for c, b in zip(crypto + io, before)]

        assert cost_of_get(b"key-000500") == [1, stored, 0, 1, stored]
        assert cost_of_get(b"key-000500") == [0, 0, 0, 0, 0]
