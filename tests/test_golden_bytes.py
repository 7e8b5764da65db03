"""Golden on-disk bytes: the SST and WAL writers under every crypto flavour.

A fixed key and nonce through ``make_file_crypto``, deterministic entries
through ``SSTBuilder`` and deterministic records through ``WALWriter`` on a
``MemEnv``.  The sha256 of each file and the number of cipher contexts its
writer initialised are pinned, so a refactor of the encryption seam that
moves one byte, or initialises one context more or fewer, fails here.
``python tests/test_golden_bytes.py`` prints the table to re-record it.

The stream schemes pay one init per ``seal`` (the modelled per-operation
EVP init of the paper's Section 3.2), so their counts follow the chunk and
WAL-buffer settings: an SST seals runs of whole units of at most one chunk,
so a 5,000-byte chunk holds one ~4 KiB block and costs 75 inits.

The SST table pins format v3 with an offset trailer on every data block,
which the builder writes; format v1/v2 bytes, and v3 bytes from before the
trailer, are pinned by the files under ``tests/data/``
(``tests/test_sst_formats.py``), which the reader must keep opening.  An AEAD file builds its key schedule once and seals
every unit under it, so each AEAD count is 1 whatever the settings; they
were 78 (SST) and 200 / 24 (WAL) when every unit built its own schedule,
with every sha256 exactly as it is now.

The WAL table pins log v2 (envelope version 2): every encrypted write unit
is ``sealed_len | sealed``, keyed on its own offset, so stream WAL bytes now
depend on the buffer size, as the AEAD bytes always did.  Under v1 a stream
WAL was one file-offset keystream, the same bytes for both buffer sizes
(shake-ctr ``9f209855...``, chacha20 ``57934eb9...``); the AEAD payloads
are unchanged and only the version byte and the envelope CRC moved.
Plaintext logs stay v1, byte for byte; legacy v1 logs are pinned under
``tests/data/`` (``tests/test_log_formats.py``).
"""

import hashlib

import pytest

from repro.crypto.cipher import CRYPTO_STATS, SCHEME_NONE, spec_for
from repro.env.mem import MemEnv
from repro.lsm.dbformat import TYPE_DELETE, TYPE_PUT
from repro.lsm.filecrypto import make_file_crypto
from repro.lsm.options import Options
from repro.lsm.sst import SSTBuilder
from repro.lsm.wal import WALWriter

SCHEMES = ["none", "shake-ctr", "chacha20", "shake-etm", "chacha20-poly1305"]
#: (encryption_threads, encryption_chunk_size)
SST_CONFIGS = [(1, 64 * 1024), (3, 5000)]
WAL_BUFFER_SIZES = [0, 512]

#: (scheme, threads, chunk) -> (sha256 of the SST file, context inits)
GOLDEN_SST = {
    ("none", 1, 65536): (
        "d59e3d4ed62f0f6382ba914a2ef55b66d584a7e4a568ce298ff6ccaba66b368d", 0),
    ("none", 3, 5000): (
        "d59e3d4ed62f0f6382ba914a2ef55b66d584a7e4a568ce298ff6ccaba66b368d", 0),
    ("shake-ctr", 1, 65536): (
        "ca76b886c226bd92baaa5c1fe32b77433eef2141cf4246122c90103a4aa17e9d", 5),
    ("shake-ctr", 3, 5000): (
        "ca76b886c226bd92baaa5c1fe32b77433eef2141cf4246122c90103a4aa17e9d", 75),
    ("chacha20", 1, 65536): (
        "956acccfb882246af0541be82e1bf98a5a8fcdcfae263ab71737668d6120112a", 5),
    ("chacha20", 3, 5000): (
        "956acccfb882246af0541be82e1bf98a5a8fcdcfae263ab71737668d6120112a", 75),
    ("shake-etm", 1, 65536): (
        "b841c55b49c248b151e9cfe742919ac0057490074ebc7592f10c682b8e76866d", 1),
    ("shake-etm", 3, 5000): (
        "b841c55b49c248b151e9cfe742919ac0057490074ebc7592f10c682b8e76866d", 1),
    ("chacha20-poly1305", 1, 65536): (
        "a1257800d20de8ea6c2664099c62a0b324a450d37ec69f7439a447caa9e74d2c", 1),
    ("chacha20-poly1305", 3, 5000): (
        "a1257800d20de8ea6c2664099c62a0b324a450d37ec69f7439a447caa9e74d2c", 1),
}
#: (scheme, buffer_size) -> (sha256 of the WAL file, context inits)
GOLDEN_WAL = {
    ("none", 0): (
        "5406a55220a2ddf2d05ecd414ced1d60a75c3c49563da2b319900d3718081ea1", 0),
    ("none", 512): (
        "5406a55220a2ddf2d05ecd414ced1d60a75c3c49563da2b319900d3718081ea1", 0),
    ("shake-ctr", 0): (
        "06c88b7ea33b593fdfa6ca51f3017cbb7cf39be4b59ca5dc3b60ed86f5bd3e6e", 200),
    ("shake-ctr", 512): (
        "6556bef9f97a753cb248e2564513440fa4d8804da6f23a674ad5f4af1bbb4e54", 24),
    ("chacha20", 0): (
        "e6556c5cef53959e50dd3fb4c59b0b8bd44e06402366762c2e7e8f86672008be", 200),
    ("chacha20", 512): (
        "6dc92c3f26b8d3f0ae0dd1cfd6ba32dbe4a08a6bef1d0282aa80a62c9d674e64", 24),
    ("shake-etm", 0): (
        "e1d395a493f4fb1f11c0336bafeaa177604d15f76948042453068cbcb5f2b607", 1),
    ("shake-etm", 512): (
        "ab9fcd87bf47a01239706e47d3daacb7b88e3f28744ebb02fa819700f555880a", 1),
    ("chacha20-poly1305", 0): (
        "68244725889ed84221cb73860062b2ac13659c8a868e2277d94e9329766419d3", 1),
    ("chacha20-poly1305", 512): (
        "6866f982eb63ad6693cacca172cb9ae45d6b2ef87208955a4f3f69e4d4c0708b", 1),
}


def _crypto(scheme):
    if scheme == "none":
        return make_file_crypto(SCHEME_NONE, "", b"", b"")
    spec = spec_for(scheme)
    return make_file_crypto(
        spec.scheme_id,
        "dek-golden",
        bytes(range(spec.key_size)),
        bytes(range(100, 100 + spec.nonce_size)),
    )


def _measure(env, path, write):
    """Run ``write``; return (sha256 of ``path``, contexts initialised)."""
    inits = CRYPTO_STATS.counter("crypto.context_inits")
    before = inits.value
    write()
    digest = hashlib.sha256(env.read_file(path)).hexdigest()
    return digest, inits.value - before


def build_sst(scheme, threads, chunk):
    env = MemEnv()
    options = Options(encryption_threads=threads, encryption_chunk_size=chunk)

    def write():
        builder = SSTBuilder(env, "/golden.sst", _crypto(scheme), options)
        for i in range(3000):
            key = b"key-%06d" % i
            if i % 11 == 0:
                builder.add(key, i + 1, TYPE_DELETE, b"")
            else:
                builder.add(key, i + 1, TYPE_PUT, b"v%d" % i * (1 + i % 40))
        builder.finish()

    return _measure(env, "/golden.sst", write)


def write_wal(scheme, buffer_size):
    env = MemEnv()

    def write():
        wal = WALWriter(
            env, "/golden.log", _crypto(scheme), buffer_size=buffer_size
        )
        for i in range(200):
            wal.add_record(b"record-%04d-" % i + bytes([i % 251]) * (i % 97))
        wal.close()

    return _measure(env, "/golden.log", write)


@pytest.mark.parametrize("threads,chunk", SST_CONFIGS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_sst_bytes_and_context_inits_are_pinned(scheme, threads, chunk):
    assert build_sst(scheme, threads, chunk) == GOLDEN_SST[scheme, threads, chunk]


@pytest.mark.parametrize("buffer_size", WAL_BUFFER_SIZES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_wal_bytes_and_context_inits_are_pinned(scheme, buffer_size):
    assert write_wal(scheme, buffer_size) == GOLDEN_WAL[scheme, buffer_size]


if __name__ == "__main__":
    print("GOLDEN_SST = {")
    for scheme in SCHEMES:
        for threads, chunk in SST_CONFIGS:
            digest, inits = build_sst(scheme, threads, chunk)
            print(f'    ("{scheme}", {threads}, {chunk}): (\n'
                  f'        "{digest}", {inits}),')
    print("}\nGOLDEN_WAL = {")
    for scheme in SCHEMES:
        for buffer_size in WAL_BUFFER_SIZES:
            digest, inits = write_wal(scheme, buffer_size)
            print(f'    ("{scheme}", {buffer_size}): (\n'
                  f'        "{digest}", {inits}),')
    print("}")
