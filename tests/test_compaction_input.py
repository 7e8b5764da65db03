"""Compaction reads its inputs a chunk at a time, as counts: env reads per
input file, cipher calls, bytes and context inits per job -- with every
per-block check still made, and the same output bytes as one read per block.

Nothing here sleeps or times anything.  Reads are counted by an ``Env``
wrapper, cipher work by ``CRYPTO_STATS``; a fixed-key provider whose nonces
derive from the file path makes every file's bytes repeat exactly.
"""

import hashlib
import itertools
import math
from contextlib import closing

import pytest

from repro.crypto.cipher import CRYPTO_STATS, spec_for
from repro.env.base import EnvWrapper, RandomAccessFileWrapper
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError, CorruptionError
from repro.lsm.compaction import CompactionJob, MergeExecutor
from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.lsm.envelope import FILE_KIND_SST, MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filecrypto import (
    CryptoProvider,
    PlaintextCryptoProvider,
    make_file_crypto,
)
from repro.lsm.filename import sst_path
from repro.lsm.options import Options
from repro.lsm.sst import CRC_SIZE, FOOTER_SIZE, SSTBuilder, SSTReader
from repro.lsm.version import FileMetadata
from repro.util.coding import decode_fixed64

DB = "/db"
CHUNK = 16 * 1024
INPUTS = 3
SPLIT = 48 * 1024
CRYPTO_COUNTERS = ("crypto.ops", "crypto.bytes", "crypto.context_inits")


class FixedKeyProvider(CryptoProvider):
    """One key for every file, the nonce a hash of the path."""

    def __init__(self, scheme):
        self.spec = spec_for(scheme)
        self.key = bytes(range(self.spec.key_size))

    def for_new_file(self, file_kind, path):
        nonce = hashlib.sha256(path.encode()).digest()[:self.spec.nonce_size]
        return make_file_crypto(self.spec.scheme_id, "dek-fixed", self.key, nonce)

    def for_existing_file(self, envelope, path):
        return make_file_crypto(
            envelope.scheme_id, envelope.dek_id, self.key, envelope.nonce
        )


class _CountedFile(RandomAccessFileWrapper):
    def __init__(self, inner, reads, path):
        super().__init__(inner)
        self._reads, self._path = reads, path

    def read(self, offset, length):
        self._reads[self._path] = self._reads.get(self._path, 0) + 1
        return super().read(offset, length)


class ReadCountingEnv(EnvWrapper):
    """Counts positional reads per file."""

    def __init__(self, inner):
        super().__init__(inner)
        self.reads: dict[str, int] = {}

    def new_random_access_file(self, path):
        return _CountedFile(
            self.inner.new_random_access_file(path), self.reads, path
        )


def _options(chunk=CHUNK):
    return Options(block_size=1024, encryption_chunk_size=chunk)


def _build_inputs(env, provider, options):
    """Three overlapping sorted runs of ~150 one-KiB blocks (~10 chunks):
    input ``n`` holds every key with ``index % 4 != n``, so most keys have
    two older versions to drop; a tombstone every 13th entry; values of
    60-170 bytes."""
    files = []
    for number in range(1, INPUTS + 1):
        path = sst_path(DB, number)
        crypto = provider.for_new_file(FILE_KIND_SST, path)
        builder = SSTBuilder(env, path, crypto, options)
        for index in range(1600):
            if index % 4 == number:
                continue
            key = b"key-%06d" % index
            seq = number * 10_000 + index
            if index % 13 == number:
                builder.add(key, seq, TYPE_DELETE, b"")
            else:
                builder.add(key, seq, TYPE_PUT, b"%d|" % seq * (10 + index % 18))
        info = builder.finish()
        files.append(FileMetadata(
            number=number, size=info.file_size,
            smallest=info.smallest_key, largest=info.largest_key,
            smallest_seq=info.smallest_seq, largest_seq=info.largest_seq,
            num_entries=info.num_entries, dek_id=info.dek_id,
        ))
    return files


def _merge(env, provider, options, files):
    numbers = itertools.count(100)
    job = CompactionJob(inputs={0: files}, output_level=1, bottommost=True)
    return MergeExecutor(env, provider, options).merge(
        DB, job, SPLIT, lambda: next(numbers)
    )


def _payload_size(env, path):
    raw = env.read_file(path)
    return len(raw) - decode_envelope(raw[:MAX_ENVELOPE_SIZE]).header_size


def _crypto_counts():
    return [CRYPTO_STATS.counter(name).value for name in CRYPTO_COUNTERS]


def _unit_sizes(env, provider, options, path):
    """The sealed size of every unit of an SST, in payload order: the data
    blocks (from the index), then the bloom, index, properties and footer
    units (from the footer)."""
    with closing(SSTReader(env, path, provider, options)) as reader:
        tag = reader._crypto.tag_size
        footer_len = FOOTER_SIZE + CRC_SIZE + tag
        footer_offset = reader.file_size - reader.envelope.header_size - footer_len
        footer = reader._read_meta(footer_offset, footer_len, b"sst-footer")
        stored = [size for __, ___, size, ____ in reader._index]
    index_size, bloom_size, props_size = (
        decode_fixed64(footer, 8 * field)[0] for field in (1, 3, 5)
    )
    stored += [bloom_size, index_size, props_size, footer_len]
    return [size - tag for size in stored]


def _seal_runs(sizes, chunk):
    """How many seals ``FileCrypto.seal_units`` makes of units of these
    sizes: back-to-back runs of at most ``chunk`` bytes, a unit at least."""
    runs = run = 0
    for size in sizes:
        if not runs or run + size > chunk:
            runs, run = runs + 1, 0
        run += size
    return runs


def test_a_merge_reads_each_stream_cipher_input_a_chunk_at_a_time():
    env = ReadCountingEnv(MemEnv())
    provider, options = FixedKeyProvider("shake-ctr"), _options()
    files = _build_inputs(env, provider, options)
    paths = [sst_path(DB, meta.number) for meta in files]

    # What one open costs, and what the inputs hold, on readers of our own.
    shapes = []
    for path in paths:
        before = env.reads.get(path, 0)
        with closing(SSTReader(env, path, provider, options)) as probe:
            opening = env.reads[path] - before
            blocks = len(probe._index)
            data_bytes = probe._index[-1][1] + probe._index[-1][2]
        shapes.append((opening, blocks, data_bytes))
    env.reads.clear()

    before = _crypto_counts()
    outputs = _merge(env, provider, options, files)
    ops, crypto_bytes, inits = (
        after - start for after, start in zip(_crypto_counts(), before)
    )

    assert len(outputs) >= 3
    for path, (opening, blocks, data_bytes) in zip(paths, shapes):
        runs = env.reads[path] - opening
        # Whole blocks only, so a run may stop up to a block short of CHUNK.
        assert runs <= math.ceil(data_bytes / (CHUNK - 2 * options.block_size))
        assert runs <= math.ceil(data_bytes / CHUNK) + 4
        assert blocks >= 8 * runs  # one read per block, before
    # One cipher call per input read past the plaintext envelope and one per
    # output chunk; every payload byte through the cipher exactly once; one
    # context per input file and one per output chunk.
    output_payloads = [
        _payload_size(env, sst_path(DB, number)) for number, __ in outputs
    ]
    output_chunks = sum(
        _seal_runs(_unit_sizes(env, provider, options, info.path), CHUNK)
        for __, info in outputs
    )
    assert ops == sum(env.reads[path] - 1 for path in paths) + output_chunks
    assert crypto_bytes == (
        sum(_payload_size(env, path) for path in paths) + sum(output_payloads)
    )
    assert inits == len(paths) + output_chunks


def test_a_chunk_smaller_than_a_block_still_reads_whole_blocks():
    env = ReadCountingEnv(MemEnv())
    provider = FixedKeyProvider("shake-ctr")
    files = _build_inputs(env, provider, _options())
    path = sst_path(DB, files[0].number)
    with closing(SSTReader(env, path, provider, _options())) as chunked:
        expected = list(chunked.raw_entries())
    with closing(SSTReader(env, path, provider, _options(chunk=1))) as reader:
        before = env.reads[path]
        assert list(reader.raw_entries()) == expected
        assert env.reads[path] - before == len(reader._index)


@pytest.mark.parametrize("scheme", ["none", "shake-ctr", "chacha20", "shake-etm"])
def test_chunked_input_equals_block_at_a_time_input(scheme):
    env = MemEnv()
    provider = (
        PlaintextCryptoProvider() if scheme == "none" else FixedKeyProvider(scheme)
    )
    files = _build_inputs(env, provider, _options())
    path = sst_path(DB, files[1].number)
    with closing(SSTReader(env, path, provider, _options())) as reader:
        by_block = [
            entry
            for block_index in range(len(reader._index))
            for entry in reader._read_block(block_index).raw_entries()
        ]
        assert list(reader.raw_entries()) == by_block
        assert len(by_block) == files[1].num_entries


def _damaged_input(scheme, damage):
    """(env, provider, files, path of the first input, offset of the block
    ``damage(blocks per chunk, blocks)`` picked, entries before that block);
    the block has one stored bit flipped."""
    env = MemEnv()
    provider, options = FixedKeyProvider(scheme), _options()
    files = _build_inputs(env, provider, options)
    path = sst_path(DB, files[0].number)
    with closing(SSTReader(env, path, provider, options)) as reader:
        bad = damage(CHUNK // (options.block_size + 64), len(reader._index))
        __, offset, size, ___ = reader._index[bad]
        intact = sum(len(reader._read_block(index).keys) for index in range(bad))
        position = reader.envelope.header_size + offset + size // 2
    raw = bytearray(env.read_file(path))
    raw[position] ^= 0x01
    env.write_file(path, bytes(raw))
    return env, provider, files, path, offset, intact


def test_a_flipped_byte_inside_a_chunk_names_its_block():
    # The sixth block of the second chunk.
    env, provider, __, path, offset, intact = _damaged_input(
        "shake-ctr", lambda per_chunk, blocks: per_chunk + 5
    )
    with closing(SSTReader(env, path, provider, _options())) as reader:
        stream = reader.raw_entries()
        # Every block before the bad one still arrives, checked, first.
        assert len(list(itertools.islice(stream, intact))) == intact
        with pytest.raises(CorruptionError, match=f"mismatch at {offset}$"):
            next(stream)


def test_a_short_read_inside_a_chunk_names_its_block():
    env, provider, __, path, offset, ___ = _damaged_input(
        "shake-ctr", lambda per_chunk, blocks: 3
    )
    with closing(SSTReader(env, path, provider, _options())) as reader:
        # The file is cut short, mid-block, behind an open reader's back.
        cut = reader.envelope.header_size + offset + 100
        env.write_file(path, env.read_file(path)[:cut])
        reader._file = env.new_random_access_file(path)
        with pytest.raises(CorruptionError, match=f"short read at {offset}$"):
            next(reader.raw_entries())


def test_a_tampered_aead_chunk_is_stamped_with_its_file():
    # The last-but-one block: the input's last chunk.
    env, provider, files, path, __, ___ = _damaged_input(
        "shake-etm", lambda per_chunk, blocks: blocks - 2
    )
    with closing(SSTReader(env, path, provider, _options())) as reader:
        with pytest.raises(AuthenticationError) as caught:
            list(reader.raw_entries())
        assert caught.value.sst_path == path
    # ... and the merge over it leaves no output behind.
    before = sorted(env.list_dir(DB))
    with pytest.raises(AuthenticationError):
        _merge(env, provider, _options(), files)
    assert sorted(env.list_dir(DB)) == before


#: scheme -> sha256 over every output of ``_merge`` (file number, the
#: ``SSTFileInfo`` and the stored bytes), recorded on the commit before the
#: chunked read, the store-and-pack bloom build and the bisect memtable:
#: same filter bytes, index entries, block cuts and split points.  Re-recorded
#: for SST format v3 (per-unit keystreams, CRC trailers on the metadata).
#: ``python tests/test_compaction_input.py`` prints the table.
GOLDEN_MERGE = {
    "shake-ctr": "3270862d27605a2132bf2c3080e262f1d1e34fc09914eef4e64dd369a1a48b87",
    "shake-etm": "53bb4dc8f4b6b5330fdcf9408a3c4257b0a0b5c3f7d3110e52deca97d7194cbd",
}


def merge_digest(scheme):
    env = MemEnv()
    provider, options = FixedKeyProvider(scheme), _options()
    digest = hashlib.sha256()
    for number, info in _merge(env, provider, options,
                               _build_inputs(env, provider, options)):
        digest.update(repr((number, info)).encode())
        digest.update(env.read_file(info.path))
    return digest.hexdigest()


@pytest.mark.parametrize("scheme", ["shake-ctr", "shake-etm"])
def test_merge_outputs_are_pinned(scheme):
    assert merge_digest(scheme) == GOLDEN_MERGE[scheme]


if __name__ == "__main__":
    for name in ("shake-ctr", "shake-etm"):
        print(f'    "{name}": "{merge_digest(name)}",')
