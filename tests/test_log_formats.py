"""Log formats: v2 (written) and the legacy v1 WAL/MANIFEST files (still read).

An encrypted log (WAL or MANIFEST, envelope version 2) stores every write
unit -- a WAL buffer flush, an unbuffered record or commit group, a MANIFEST
edit -- as ``sealed_len fixed32 | sealed``, keyed on the offset of its
sealed bytes: a flush squeezes exactly its own keystream, under a stream
cipher or an AEAD alike.  A plaintext log keeps version 1 and its bytes.

Version 1 under a stream cipher (one file-offset keystream over the whole
payload) is what every encrypted WAL and MANIFEST was before, and the reader
still replays it.  It is pinned by small files under ``tests/data/``:
``wal-v1-<scheme>-<buffer>.log`` hold ``legacy_records()`` under a fixed key
and nonce, and ``db-v1-shake-ctr/`` is a store written by the v1 engine (one
SST, a MANIFEST, CURRENT, and a WAL holding writes no SST has).  Against a
tree that still writes v1 logs, ``python tests/test_log_formats.py DIR``
writes them into DIR.
"""

import hashlib
import shutil
import sys
from pathlib import Path

import pytest

from repro.crypto import xof
from repro.crypto.cipher import SCHEME_NONE, spec_for
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError, RollbackError
from repro.integrity import (
    ROOT_SIZE, FileTrustedCounter, MemoryTrustedCounter, merkle_root,
)
from repro.lsm.db import DB
from repro.lsm.envelope import (
    ENVELOPE_VERSION,
    ENVELOPE_VERSION_UNITS,
    FILE_KIND_MANIFEST,
    FILE_KIND_WAL,
    MAX_ENVELOPE_SIZE,
    decode_envelope,
)
from repro.lsm.filecrypto import (
    PlaintextCryptoProvider,
    SingleKeyCryptoProvider,
    make_file_crypto,
)
from repro.lsm.options import Options
from repro.lsm.version import VersionSet
from repro.lsm.wal import WALWriter, frame_record, read_wal_records
from repro.tools import sst_dump
from repro.util.checksum import masked_crc32
from repro.util.coding import decode_fixed32, encode_fixed32

DATA = Path(__file__).parent / "data"
LEGACY_DB_DIR = DATA / "db-v1-shake-ctr"
STREAM = ["shake-ctr", "chacha20"]
#: (scheme, WAL buffer size) -> sha256 of ``tests/data/wal-v1-<scheme>-<buffer>.log``.
LEGACY_WAL = {
    ("none", 0):
        "67c3d9ae10e605ed867ffc4fa375e558e489a9c00d567bebec43b7cf48185fde",
    ("none", 512):
        "67c3d9ae10e605ed867ffc4fa375e558e489a9c00d567bebec43b7cf48185fde",
    ("shake-ctr", 0):
        "e8f50cd584470bef201cd0c52c20d4d36aa55924bf2af87e6f482f9ed1357ed6",
    ("shake-ctr", 512):
        "e8f50cd584470bef201cd0c52c20d4d36aa55924bf2af87e6f482f9ed1357ed6",
    ("chacha20", 0):
        "78506871a4b62fb442c5b8cfccfb2937929b5f310d2cb2a47eca8f8bcb9d1cf0",
    ("chacha20", 512):
        "78506871a4b62fb442c5b8cfccfb2937929b5f310d2cb2a47eca8f8bcb9d1cf0",
    ("shake-etm", 0):
        "d20c90e54f20cdd4a9c5b0e72ef5a545062294967c1998adce54ff8bbd899663",
    ("shake-etm", 512):
        "7c570d8724d215056373251912cf3d49129ea517c580df1f3c72f48bbba92768",
}
#: file name -> sha256, for every file of ``tests/data/db-v1-shake-ctr/``.
LEGACY_DB = {
    "000003.log":
        "e1d5931280e62d601518a5bf0c094fc061e996c30482c1a864edac2d4634bf63",
    "000004.sst":
        "de394ef914f7706930f3d0041795ae04304eb10729daea84c1f0756369a8edf3",
    "CURRENT":
        "1005a525006f148c86efcbfb36c6eac091b311532448010f70f7de9a68007167",
    "MANIFEST-000002":
        "bf4d86126fa29897a31c4d38a2dc09e1a29cfa85b98bf87bc379a8166fd02463",
}


def legacy_records():
    """What every legacy WAL holds, in order: ~5 KiB of framed records, so a
    v1 stream crosses a 4 KiB keystream segment."""
    return [
        b"legacy-record-%03d-" % i + bytes([i % 251]) * (i * 7 % 97)
        for i in range(90)
    ]


#: The legacy store's writes, in order: (key, value, or None for a delete).
#: The first ``LEGACY_DB_FLUSHED`` are in its SST, the rest only in its WAL.
LEGACY_DB_OPS = (
    [(b"db-%04d" % i, b"sst-value-%d-" % i * (1 + i % 3)) for i in range(200)]
    + [(b"db-%04d" % i, b"wal-value-%d" % i) for i in range(150, 260)]
    + [(b"db-%04d" % i, None) for i in range(0, 260, 17)]
)
LEGACY_DB_FLUSHED = 200


def _key(scheme):
    return bytes(range(spec_for(scheme).key_size))


def _crypto(scheme):
    """A file's crypto under the legacy files' fixed key and nonce."""
    if scheme == "none":
        return make_file_crypto(SCHEME_NONE, "", b"", b"")
    spec = spec_for(scheme)
    return make_file_crypto(
        spec.scheme_id, "dek-legacy", _key(scheme),
        bytes(range(100, 100 + spec.nonce_size)),
    )


def _provider(scheme):
    if scheme == "none":
        return PlaintextCryptoProvider()
    return SingleKeyCryptoProvider(scheme, _key(scheme), dek_id="dek-legacy")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _envelope(raw):
    return decode_envelope(bytes(raw[:MAX_ENVELOPE_SIZE]))


def write_legacy_fixtures(directory):
    """Write the legacy logs and store into ``directory`` with the tree's
    own writers: run it against a tree that still writes v1 logs."""
    env, directory = LocalEnv(), Path(directory)
    env.mkdirs(str(directory))
    for scheme, buffer_size in LEGACY_WAL:
        wal = WALWriter(
            env, str(directory / f"wal-v1-{scheme}-{buffer_size}.log"),
            _crypto(scheme), buffer_size=buffer_size,
        )
        for record in legacy_records():
            wal.add_record(record)
        wal.close()
    store = directory / LEGACY_DB_DIR.name
    shutil.rmtree(store, ignore_errors=True)
    db = DB(str(store), Options(env=env, crypto_provider=_provider("shake-ctr")))
    for number, (key, value) in enumerate(LEGACY_DB_OPS):
        if number == LEGACY_DB_FLUSHED:
            db.flush()
        if value is None:
            db.delete(key)
        else:
            db.put(key, value)
    db.close()


def _legacy_wal(env, scheme, buffer_size, path="/db/000001.log"):
    source = DATA / f"wal-v1-{scheme}-{buffer_size}.log"
    assert _sha256(source) == LEGACY_WAL[scheme, buffer_size]
    env.write_file(path, source.read_bytes())
    return path


def _write_wal(env, scheme, records, buffer_size=0, path="/db/000002.log"):
    """Write ``records`` as a v2 log; returns (path, marks): (stored file
    size, records persisted so far) after the envelope and after each unit."""
    wal = WALWriter(env, path, _crypto(scheme), buffer_size=buffer_size)
    marks = [(len(env.read_file(path)), 0)]
    for count, record in enumerate(records, 1):
        wal.add_record(record)
        if wal.buffered_bytes == 0:
            marks.append((len(env.read_file(path)), count))
    wal.close()
    size = len(env.read_file(path))
    if marks[-1][0] != size:
        marks.append((size, len(records)))
    return path, marks


@pytest.mark.parametrize("scheme, buffer_size", sorted(LEGACY_WAL))
def test_a_legacy_wal_replays_record_for_record(scheme, buffer_size):
    env = MemEnv()
    path = _legacy_wal(env, scheme, buffer_size)
    assert _envelope(env.read_file(path)).version == ENVELOPE_VERSION
    assert read_wal_records(env, path, _provider(scheme)) == legacy_records()


@pytest.mark.parametrize("scheme", ["none", *STREAM, "shake-etm"])
def test_a_new_log_is_v2_when_encrypted_and_v1_when_plaintext(scheme):
    env = MemEnv()
    path, __ = _write_wal(env, scheme, legacy_records(), buffer_size=512)
    raw = env.read_file(path)
    assert _envelope(raw).version == (
        ENVELOPE_VERSION if scheme == "none" else ENVELOPE_VERSION_UNITS
    )
    assert read_wal_records(env, path, _provider(scheme)) == legacy_records()
    if scheme == "none":  # plaintext bytes are the frames themselves
        header = _envelope(raw).header_size
        assert raw[header:] == b"".join(map(frame_record, legacy_records()))


def _legacy_db_contents():
    contents = {}
    for key, value in LEGACY_DB_OPS:
        if value is None:
            contents.pop(key, None)
        else:
            contents[key] = value
    return contents


def _log_versions(env, path="/db"):
    """{file kind: envelope versions} of the store's WALs and MANIFESTs."""
    versions = {}
    for name in env.list_dir(path):
        if name == "CURRENT":
            continue
        envelope = _envelope(env.read_file(f"{path}/{name}"))
        if envelope.file_kind in (FILE_KIND_WAL, FILE_KIND_MANIFEST):
            versions.setdefault(envelope.file_kind, set()).add(envelope.version)
    return versions


def test_a_legacy_store_opens_reads_writes_and_reopens_as_v2():
    names = sorted(p.name for p in LEGACY_DB_DIR.iterdir())
    assert {name: _sha256(LEGACY_DB_DIR / name) for name in names} == LEGACY_DB
    env, provider = MemEnv(), _provider("shake-ctr")
    for name in names:
        env.write_file(f"/db/{name}", (LEGACY_DB_DIR / name).read_bytes())
    v1 = {ENVELOPE_VERSION}
    assert _log_versions(env) == {FILE_KIND_WAL: v1, FILE_KIND_MANIFEST: v1}
    expected = _legacy_db_contents()
    with DB("/db", Options(env=env, crypto_provider=provider)) as db:
        for key in sorted({key for key, __ in LEGACY_DB_OPS}):
            assert db.get(key) == expected.get(key), key
        db.put(b"db-new", b"written by the v2 engine")
        expected[b"db-new"] = b"written by the v2 engine"
    with DB("/db", Options(env=env, crypto_provider=provider)) as db:
        assert dict(db.scan(b"", b"\xff")) == expected
        v2 = {ENVELOPE_VERSION_UNITS}
        assert _log_versions(env) == {FILE_KIND_WAL: v2, FILE_KIND_MANIFEST: v2}


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_a_bare_root_counter_verifies_a_store_that_names_no_wal(kind):
    """A counter as written before WALs were named holds a bare 32-byte root
    and no floor: over the legacy store, whose MANIFEST names no WAL, it
    verifies (any other bare root is a rollback), and the store goes on."""
    env, provider = MemEnv(), _provider("shake-ctr")
    for name in sorted(p.name for p in LEGACY_DB_DIR.iterdir()):
        env.write_file(f"/db/{name}", (LEGACY_DB_DIR / name).read_bytes())
    versions = VersionSet(env, "/db", provider, Options().num_levels)
    versions.recover()
    assert versions.current.wals == {}
    root = merkle_root(versions.current)

    def counter_holding(bare_root):
        if kind == "memory":
            counter = MemoryTrustedCounter()
        else:
            env.delete_file("/trusted/counter")
            counter = FileTrustedCounter(env, "/trusted/counter")
        counter.advance(bare_root)
        assert len(counter.read().root) == ROOT_SIZE
        return counter

    stale = Options(env=env, crypto_provider=provider)
    stale.trusted_counter = counter_holding(bytes(ROOT_SIZE))
    with pytest.raises(RollbackError):
        DB("/db", stale)
    options = Options(env=env, crypto_provider=provider)
    options.trusted_counter = counter_holding(root)
    expected = _legacy_db_contents()
    with DB("/db", options) as db:
        assert dict(db.scan(b"", b"\xff")) == expected
        db.put(b"db-new", b"anchored")
        expected[b"db-new"] = b"anchored"
    with DB("/db", options) as db:
        assert dict(db.scan(b"", b"\xff")) == expected


@pytest.mark.parametrize("scheme, buffer_size", sorted(LEGACY_WAL))
def test_sst_dump_names_a_legacy_log_format(scheme, buffer_size, capsys):
    path = DATA / f"wal-v1-{scheme}-{buffer_size}.log"
    assert sst_dump.main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "kind       : wal\n" in out
    assert "format     : log v1\n" in out


@pytest.mark.parametrize("kind", [FILE_KIND_WAL, FILE_KIND_MANIFEST])
def test_sst_dump_names_a_v2_log_format(kind, tmp_path, capsys):
    path = str(tmp_path / "000002.log")
    wal = WALWriter(LocalEnv(), path, _crypto("shake-ctr"), file_kind=kind)
    wal.add_record(b"one record")
    wal.close()
    assert sst_dump.main([path, "--key", _key("shake-ctr").hex()]) == 0
    assert "format     : log v2\n" in capsys.readouterr().out


@pytest.mark.parametrize("buffer_size", [0, 512])
def test_a_v2_wal_flush_squeezes_exactly_its_unit(squeezed, buffer_size):
    """A unit of n bytes costs one ``digest(n)``, wherever it sits."""
    env = MemEnv()
    wal = WALWriter(env, "/db/1.log", _crypto("shake-ctr"), buffer_size=buffer_size)
    flushes = 0
    for record in legacy_records():
        unit = wal.buffered_bytes + len(frame_record(record))
        squeezed.clear()
        wal.add_record(record)
        if wal.buffered_bytes == 0:
            assert squeezed == [unit]
            flushes += 1
        else:
            assert squeezed == []
    assert flushes >= 10


def test_a_v1_seal_squeezes_from_its_segments_start(squeezed):
    """The ablation's other side: the same units as one file-offset stream
    (what v1 logs hold; reading them is XORing again) squeeze every segment
    a unit touches from the segment's start."""
    crypto, offset, extra = _crypto("shake-ctr"), 0, []
    for record in legacy_records():
        unit = frame_record(record)
        squeezed.clear()
        crypto.open(unit, offset)
        extra.append(sum(squeezed) - len(unit))
        assert extra[-1] == offset % xof.SEGMENT_SIZE
        offset += len(unit)
    assert max(extra) > 0


def _short_records():
    return [b"r%02d-" % i + b"x" * (i * 13 % 97) for i in range(24)]


@pytest.mark.parametrize("buffer_size", [0, 512])
@pytest.mark.parametrize("scheme", STREAM)
def test_a_cut_inside_the_last_unit_replays_the_complete_units(scheme, buffer_size):
    env, records = MemEnv(), _short_records()
    path, marks = _write_wal(env, scheme, records, buffer_size)
    (complete, count), (size, __) = marks[-2], marks[-1]
    raw = env.read_file(path)
    for cut in range(complete, size):
        env.write_file(path, raw[:cut])
        assert read_wal_records(env, path, _provider(scheme)) == records[:count], cut
    env.write_file(path, raw)
    assert read_wal_records(env, path, _provider(scheme)) == records


@pytest.mark.parametrize("scheme", STREAM)
def test_a_flipped_bit_in_a_complete_unit_stops_replay_at_that_unit(scheme):
    env, records = MemEnv(), _short_records()
    path, marks = _write_wal(env, scheme, records)
    raw = env.read_file(path)
    for (start, count), (end, __) in zip(marks, marks[1:]):
        for position in (start + 4, (start + 4 + end) // 2, end - 1):
            flipped = bytearray(raw)
            flipped[position] ^= 0x04
            env.write_file(path, bytes(flipped))
            assert read_wal_records(env, path, _provider(scheme)) == records[:count]


def test_a_flipped_bit_in_a_complete_aead_unit_raises():
    env, records = MemEnv(), _short_records()
    path, marks = _write_wal(env, "shake-etm", records)
    raw = bytearray(env.read_file(path))
    raw[marks[1][0] - 1] ^= 0x04
    env.write_file(path, bytes(raw))
    with pytest.raises(AuthenticationError):
        read_wal_records(env, path, _provider("shake-etm"))


@pytest.mark.parametrize("scheme", [*STREAM, "shake-etm"])
def test_a_huge_length_prefix_is_a_torn_tail(scheme):
    env, records = MemEnv(), _short_records()
    path, marks = _write_wal(env, scheme, records)
    raw = bytearray(env.read_file(path))
    end, count = marks[4]
    assert decode_fixed32(raw, end)[0] < 1 << 16
    raw[end + 3] ^= 0x80  # the prefix's top byte: 2 GiB longer
    env.write_file(path, bytes(raw))
    assert read_wal_records(env, path, _provider(scheme)) == records[:count]


def _relabel(env, path, version):
    """Rewrite the envelope's version byte, with its CRC fixed up."""
    raw = bytearray(env.read_file(path))
    end = _envelope(raw).header_size
    raw[4] = version
    raw[end - 4:end] = encode_fixed32(masked_crc32(bytes(raw[:end - 4])))
    env.write_file(path, bytes(raw))
    assert _envelope(raw).version == version


@pytest.mark.parametrize("scheme", STREAM)
def test_a_relabelled_log_replays_no_record(scheme):
    """A v2 stream log announced as v1 is XORed with the file-offset stream
    and a v1 log announced as v2 is cut at garbage lengths: either way the
    first frame's CRC fails and replay stops before any record -- a silent
    stop, like a cut WAL, but never a wrong record."""
    env = MemEnv()
    path, __ = _write_wal(env, scheme, legacy_records(), buffer_size=512)
    _relabel(env, path, ENVELOPE_VERSION)
    assert read_wal_records(env, path, _provider(scheme)) == []
    for buffer_size in (0, 512):
        path = _legacy_wal(env, scheme, buffer_size)
        _relabel(env, path, ENVELOPE_VERSION_UNITS)
        assert read_wal_records(env, path, _provider(scheme)) == []


if __name__ == "__main__":
    write_legacy_fixtures(sys.argv[1])
