"""SST formats: v3 (written) and the legacy v1/v2 files (still read).

Format v3 keys every unit's stream on its own offset and ends every
metadata unit in a CRC; formats v1 (one file-offset keystream) and v2 (v1
under an AEAD) are pinned by small files under ``tests/data/``, written by
the v1/v2 builder with a fixed key and nonce from ``legacy_entries()``.  So
are v3 files whose data blocks carry no offset trailer: the builder has
ended every block in one since, and the reader walks a block without one.
``python tests/test_sst_formats.py DIR`` writes the v3 files with the
builder of the tree on ``PYTHONPATH``.
"""

import hashlib
import itertools
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro.crypto import xof
from repro.crypto.cipher import SCHEME_NONE, spec_for
from repro.env.mem import MemEnv
from repro.errors import CorruptionError
from repro.lsm.compaction import CompactionJob, MergeExecutor
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE, TYPE_PUT
from repro.lsm.envelope import FILE_KIND_SST, MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filecrypto import (
    PlaintextCryptoProvider,
    SingleKeyCryptoProvider,
    make_file_crypto,
)
from repro.lsm.options import Options
from repro.lsm.sst import CRC_SIZE, FOOTER_SIZE, SSTBuilder, SSTReader, sst_format
from repro.lsm.version import FileMetadata
from repro.tools import sst_dump
from repro.util.checksum import masked_crc32
from repro.util.coding import decode_fixed64, encode_fixed32

DATA = Path(__file__).parent / "data"
#: (format, scheme) -> sha256 of ``tests/data/sst-<format>-<scheme>.sst``.
LEGACY = {
    ("v1", "none"):
        "ad7b54e8e242201c4eaf6de405fb56e83bf130a212bb913ec5f92370968146d0",
    ("v1", "shake-ctr"):
        "f758813d84348f5229e3cd772b65c3b865679ac6f2c2105bd6818079516282f5",
    ("v1", "chacha20"):
        "f454c7020d60833f3bd0d26445478126e04189a1d8e727196e445e34c8dfe825",
    ("v2", "shake-etm"):
        "b35b5472586696c0b5a8972350344f12ba131b1d06b88c1eb7c86f10706e2180",
    ("v2", "chacha20-poly1305"):
        "2d7a372ed3bba82db6e54484217d0c5ca16294e365bf1253c92ee13d4f16dbb2",
    ("v3", "none"):
        "46cfaf031ecbb92188a49604e59bed2925c4fb8c7735bbeea56608ca14b8fac6",
    ("v3", "shake-ctr"):
        "52773ceaf38ec41e2152b72f6da0a5f7a9eb17ec56787c1f3f107bd7c67cfd3c",
    ("v3", "shake-etm"):
        "8020c7310d3a0df1ff742b0debd82cbcaf6e73dafc4dc32951bd093d0af65ac1",
}
#: The v3 files' schemes: no trailer on any block, under each kind of crypto.
LEGACY_V3 = ["none", "shake-ctr", "shake-etm"]


def legacy_entries():
    """What every legacy file holds, in order: (key, seq, type, value)."""
    return [
        (b"legacy-%04d" % i, 1000 - i, TYPE_DELETE if i % 9 == 0 else TYPE_PUT,
         b"" if i % 9 == 0 else b"value-%d-" % i * (1 + i % 5))
        for i in range(150)
    ]


def _provider(scheme):
    """The legacy files' key: ``bytes(range(key size))``, DEK "dek-legacy"."""
    if scheme == "none":
        return PlaintextCryptoProvider()
    key = bytes(range(spec_for(scheme).key_size))
    return SingleKeyCryptoProvider(scheme, key, dek_id="dek-legacy")


def _legacy_crypto(scheme):
    """The legacy key, and the legacy files' fixed nonce."""
    if scheme == "none":
        return make_file_crypto(SCHEME_NONE, "", b"", b"")
    spec = spec_for(scheme)
    return make_file_crypto(
        spec.scheme_id, "dek-legacy", bytes(range(spec.key_size)),
        bytes(range(100, 100 + spec.nonce_size)),
    )


def write_legacy_v3(directory):
    """Write ``sst-v3-<scheme>.sst`` into ``directory`` with the tree's own
    builder: run it against a tree whose blocks carry no offset trailer."""
    for scheme in LEGACY_V3:
        env, path = MemEnv(), "/legacy.sst"
        builder = SSTBuilder(
            env, path, _legacy_crypto(scheme), Options(block_size=1024)
        )
        for entry in legacy_entries():
            builder.add(*entry)
        builder.finish()
        (Path(directory) / f"sst-v3-{scheme}.sst").write_bytes(env.read_file(path))


def _legacy(env, fmt, scheme, path="/db/000001.sst"):
    raw = (DATA / f"sst-{fmt}-{scheme}.sst").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == LEGACY[fmt, scheme]
    env.write_file(path, raw)
    return path


def _build(env, scheme, path="/db/000002.sst", n=600):
    builder = SSTBuilder(
        env, path, _provider(scheme).for_new_file(FILE_KIND_SST, path), Options()
    )
    for i in range(n):
        builder.add(b"key-%06d" % i, i + 1, TYPE_PUT, b"value-%06d-" % i * 3)
    return builder.finish()


@pytest.mark.parametrize("fmt, scheme", sorted(LEGACY))
def test_a_legacy_file_reads_back_entry_for_entry(fmt, scheme):
    env = MemEnv()
    path = _legacy(env, fmt, scheme)
    expected = legacy_entries()
    with closing(SSTReader(env, path, _provider(scheme), Options())) as reader:
        assert sst_format(reader.envelope) == fmt
        assert len(reader._index) >= 3
        assert list(reader.entries()) == expected
        # Compaction's input path: the blocks in one run, opened unit by unit.
        assert [
            (key, MAX_SEQUENCE - inverted, vtype)
            for key, inverted, vtype, __ in reader.raw_entries()
        ] == [entry[:3] for entry in expected]
        for key, __, vtype, value in expected:
            assert reader.get(key) == (vtype, value)


@pytest.mark.parametrize("fmt, scheme", sorted(LEGACY))
def test_compaction_rewrites_a_legacy_input_as_v3(fmt, scheme):
    env, provider = MemEnv(), _provider(scheme)
    path = _legacy(env, fmt, scheme)
    with closing(SSTReader(env, path, provider, Options())) as reader:
        meta = FileMetadata(
            number=1, size=reader.file_size,
            smallest=legacy_entries()[0][0], largest=legacy_entries()[-1][0],
            smallest_seq=851, largest_seq=1000,
            num_entries=reader.num_entries, dek_id=reader.dek_id,
        )
    job = CompactionJob(inputs={0: [meta]}, output_level=1, bottommost=True)
    numbers = itertools.count(7)
    ((number, info),) = MergeExecutor(env, provider, Options()).merge(
        "/db", job, 1 << 20, lambda: next(numbers)
    )
    with closing(SSTReader(env, info.path, provider, Options())) as output:
        assert sst_format(output.envelope) == "v3"
        assert list(output.entries()) == [
            entry for entry in legacy_entries() if entry[2] == TYPE_PUT
        ]


@pytest.mark.parametrize("fmt, scheme", sorted(LEGACY))
def test_sst_dump_names_a_legacy_format(fmt, scheme, capsys):
    assert sst_dump.main([str(DATA / f"sst-{fmt}-{scheme}.sst")]) == 0
    assert f"format     : {fmt}\n" in capsys.readouterr().out


def _relabel(env, path, version):
    """Rewrite the envelope's version byte, with its CRC fixed up."""
    raw = bytearray(env.read_file(path))
    end = decode_envelope(bytes(raw[:MAX_ENVELOPE_SIZE])).header_size
    raw[4] = version
    raw[end - 4:end] = encode_fixed32(masked_crc32(bytes(raw[:end - 4])))
    env.write_file(path, bytes(raw))
    assert decode_envelope(bytes(raw[:MAX_ENVELOPE_SIZE])).version == version


@pytest.mark.parametrize("fmt, scheme", sorted(LEGACY))
def test_a_relabelled_envelope_version_fails_the_open(fmt, scheme):
    """A v1/v2 file announced as v3, or a v3 file (with block trailers or
    without) announced as v1/v2, is never read under the other layout: the
    footer's CRC, magic or tag fails."""
    env = MemEnv()
    if fmt == "v3":
        paths = [_build(env, scheme).path, _legacy(env, fmt, scheme)]
        version = 1
    else:
        paths, version = [_legacy(env, fmt, scheme)], 2
    for path in paths:
        _relabel(env, path, version)
        with pytest.raises(CorruptionError):  # AuthenticationError is one
            SSTReader(env, path, _provider(scheme), Options())


@pytest.mark.parametrize("scheme", LEGACY_V3)
def test_only_blocks_written_now_carry_an_offset_trailer(scheme):
    """The builder ends every data block in an offset trailer; the pinned
    v3 files have none, so reading them back walks every block."""
    # Imported here: the trees that wrote the pinned files do not have it.
    from repro.lsm.block import BLOCK_OFFSETS

    env = MemEnv()
    for path, trailer in (
        (_build(env, scheme).path, BLOCK_OFFSETS),
        (_legacy(env, "v3", scheme), 0),
    ):
        with closing(SSTReader(env, path, _provider(scheme), Options())) as reader:
            flags = {
                reader._read_payload(offset, size)[0]
                for __, offset, size, ___ in reader._index
            }
        assert flags == {trailer}, path


@pytest.mark.parametrize("scheme", ["none", "shake-ctr"])
@pytest.mark.parametrize("role", ["bloom", "index", "props", "footer"])
def test_a_flipped_bit_in_an_untagged_metadata_unit_is_caught(role, scheme):
    """Without a tag, one stored bit flipped in any metadata unit fails its
    CRC trailer before the unit is parsed: the open raises, nothing is
    served from a filter, index, property or offset that was not written."""
    env = MemEnv()
    info = _build(env, scheme)
    with closing(SSTReader(env, info.path, _provider(scheme), Options())) as reader:
        base = reader.envelope.header_size
        footer_len = FOOTER_SIZE + CRC_SIZE
        footer_offset = info.file_size - base - footer_len
        footer = reader._read_meta(footer_offset, footer_len, b"sst-footer")
    fields = [decode_fixed64(footer, 8 * i)[0] for i in range(6)]
    units = {
        "index": fields[0:2], "bloom": fields[2:4], "props": fields[4:6],
        "footer": [footer_offset, footer_len],
    }
    offset, size = units[role]
    for position in (offset, offset + size // 2, offset + size - 5):
        raw = bytearray(env.read_file(info.path))
        raw[base + position] ^= 0x10
        env.write_file("/db/flipped.sst", bytes(raw))
        with pytest.raises(CorruptionError, match=f"sst-{role} checksum mismatch"):
            SSTReader(env, "/db/flipped.sst", _provider(scheme), Options())


def test_a_v3_block_read_squeezes_exactly_its_own_bytes(squeezed):
    env = MemEnv()
    info = _build(env, "shake-ctr")
    with closing(SSTReader(env, info.path, _provider("shake-ctr"), Options())) as reader:
        assert len(reader._index) >= 8
        for block, (__, offset, size, ___) in enumerate(reader._index):
            squeezed.clear()
            reader._read_block(block)
            assert squeezed == [size], offset


def test_a_v1_block_read_squeezes_from_its_segments_start(squeezed):
    """The ablation's other side: the legacy path squeezes every segment a
    block touches from the segment's start."""
    env = MemEnv()
    path = _legacy(env, "v1", "shake-ctr")
    with closing(SSTReader(env, path, _provider("shake-ctr"), Options())) as reader:
        extra = []
        for block, (__, offset, size, ___) in enumerate(reader._index):
            squeezed.clear()
            reader._read_block(block)
            extra.append(sum(squeezed) - size)
            assert extra[-1] == offset % xof.SEGMENT_SIZE
        assert max(extra) > 0


if __name__ == "__main__":
    write_legacy_v3(sys.argv[1])
