"""Isolated probes: timed calls into each layer's public entry points.

Each probe runs on a fixed input after a warm-up and reports the median of
its timed batches, in reference-host time.  A probe whose entry point is
gone (a later change renamed or removed it) is reported as unavailable and
its metrics read 0; the end-to-end run is unaffected.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import host
from gen import key

CALLS = 2000
_KEY = bytes(range(32))


def timed_us(fn, calls: int, batch: int = 1, warmup: int = 200) -> float:
    """Median over ``calls // batch`` batches of the per-call time, in us.
    ``batch`` > 1 is for calls whose cost is amortised (a buffered write)."""
    for _ in range(min(warmup, calls)):
        fn()
    times = []
    for _ in range(max(1, calls // batch)):
        start = perf_counter()
        for _ in range(batch):
            fn()
        times.append((perf_counter() - start) / batch)
    return statistics.median(times) * 1e6


def in_reference_time(probe) -> dict:
    """Run a probe and scale what it measured by the host factor around
    it: times (``*_us``) down, rates (``*_per_s``) up."""
    factors = host.host_factors(3)
    values = probe()
    factors += host.host_factors(3)
    factor = sum(factors) / len(factors)
    return {
        name: value * factor if name.endswith("_per_s") else value / factor
        for name, value in values.items()
    }


def _mb_per_s(fn, nbytes: int, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return nbytes / statistics.median(times) / 1e6


def probe_protocol(tmp: str, calls: int) -> dict:
    from repro.service import protocol

    k, value = key(7), os.urandom(256)
    state = {"rid": 0}

    def encode():
        state["rid"] += 1
        return protocol.encode_frame(
            protocol.Message(
                protocol.OP_PUT, state["rid"], protocol.encode_put(k, value)
            )
        )

    body = encode()[4:]

    def decode():
        protocol.decode_put(protocol.decode_frame_body(body).payload)

    return {
        "service.protocol.encode_put_us": timed_us(encode, calls),
        "service.protocol.decode_put_us": timed_us(decode, calls),
    }


def wire_bytes_per_op(workload, stream, sample: int = 2000) -> float:
    """Request + response frame bytes per op over the head of the op
    stream, sized with the public frame encoders."""
    from repro.service import protocol as p

    value = b"v" * workload.value_size
    pairs = [(key(i), value) for i in range(20)]

    def frame(opcode, payload):
        return len(p.encode_frame(p.Message(opcode, 1000, payload)))

    sizes = (
        frame(p.OP_GET, p.encode_key(key(0)))
        + frame(p.RESP_VALUE, p.encode_value(value)),
        frame(p.OP_PUT, p.encode_put(key(0), value)) + frame(p.RESP_OK, b""),
        frame(p.OP_SCAN, p.encode_scan(key(0), None, 20))
        + frame(p.RESP_PAIRS, p.encode_pairs(pairs)),
    )
    head = stream.kinds[:sample]
    return sum(sizes[kind] for kind in head) / max(1, len(head))


def probe_wal(tmp: str, calls: int) -> dict:
    from repro.crypto.cipher import generate_nonce, scheme_id
    from repro.env.local import LocalEnv
    from repro.lsm.filecrypto import make_file_crypto
    from repro.lsm.wal import WALWriter

    out = {}
    for name, scheme, size, batch in (
        ("lsm.wal.add_record_us", "shake-ctr", 100, 100),
        ("lsm.wal.seal_1k_record_us", "shake-etm", 1024, 1),
    ):
        crypto = make_file_crypto(
            scheme_id(scheme), "probe-dek", _KEY, generate_nonce(scheme)
        )
        writer = WALWriter(
            LocalEnv(), os.path.join(tmp, f"probe-{scheme}.log"), crypto,
            buffer_size=512,
        )
        payload = os.urandom(size)
        try:
            out[name] = timed_us(
                lambda: writer.add_record(payload), calls, batch=batch
            )
        finally:
            writer.close()
    return out


def probe_memtable(tmp: str, calls: int) -> dict:
    from repro.lsm.dbformat import TYPE_PUT
    from repro.lsm.memtable import make_memtable

    mem = make_memtable("skiplist")
    value = os.urandom(100)
    resident = 2500
    for i in range(resident):
        mem.add(i + 1, TYPE_PUT, key(i * 7919 % 1_000_003), value)
    state = {"i": resident}

    def add():
        i = state["i"] = state["i"] + 1
        mem.add(i + 1, TYPE_PUT, key(i * 7919 % 1_000_003), value)

    def get():
        i = state["i"] = state["i"] + 1
        mem.get(key((i % resident) * 7919 % 1_000_003))

    # gets first: they run against exactly the 2,500 resident entries.
    get_us = timed_us(get, calls)
    return {
        "lsm.memtable.get_us": get_us,
        "lsm.memtable.add_us": timed_us(add, calls),
    }


def probe_sst(tmp: str, calls: int) -> dict:
    from repro.env.local import LocalEnv
    from repro.lsm.dbformat import TYPE_PUT
    from repro.lsm.envelope import FILE_KIND_SST
    from repro.lsm.filecrypto import SingleKeyCryptoProvider
    from repro.lsm.options import Options
    from repro.lsm.sst import SSTBuilder, SSTReader

    env, options = LocalEnv(), Options()
    value = os.urandom(100)
    entries = 256 * 1024 // (16 + len(value))
    nbytes = entries * (16 + len(value))
    out = {}
    paths = {}
    for name, scheme in (
        ("lsm.sst.build_mb_per_s", "shake-ctr"),
        ("lsm.sst.build_aead_mb_per_s", "shake-etm"),
    ):
        provider = SingleKeyCryptoProvider(scheme, _KEY)
        path = paths[scheme] = os.path.join(tmp, f"probe-{scheme}.sst")

        def build():
            builder = SSTBuilder(
                env, path, provider.for_new_file(FILE_KIND_SST, path), options
            )
            for i in range(entries):
                builder.add(key(2 * i), i + 1, TYPE_PUT, value)
            builder.finish()

        out[name] = _mb_per_s(build, nbytes)

    provider = SingleKeyCryptoProvider("shake-ctr", _KEY)
    path = paths["shake-ctr"]
    reader = SSTReader(env, path, provider, options, block_cache=None)
    state = {"i": 0}

    def hit():
        i = state["i"] = (state["i"] + 7919) % entries
        reader.get(key(2 * i))

    def reject():
        i = state["i"] = (state["i"] + 7919) % entries
        reader.get(key(2 * i + 1))

    def scan():
        for _entry in reader.entries():
            pass

    try:
        out["lsm.sst.get_hit_us"] = timed_us(hit, calls)
        out["lsm.sst.get_bloom_reject_us"] = timed_us(reject, calls)
        out["lsm.sst.scan_mb_per_s"] = _mb_per_s(scan, nbytes)
    finally:
        reader.close()
    out["lsm.sst.open_us"] = timed_us(
        lambda: SSTReader(env, path, provider, options, block_cache=None).close(),
        calls // 8, warmup=20,
    )
    return out


def probe_crypto(tmp: str, calls: int) -> dict:
    from repro.crypto.cipher import create_aead, create_cipher

    nonce = bytes(16)
    block = os.urandom(4096)
    chunk = os.urandom(64 * 1024)
    cipher = create_cipher("shake-ctr", _KEY, nonce)
    sealed = create_aead("shake-etm", _KEY, nonce).seal(block)
    chunk_us = timed_us(lambda: cipher.xor_at(chunk, 0), calls // 5, warmup=20)
    return {
        # The paper's Fig. 4 split: context init versus bulk work.
        "crypto.ctx_init_us": timed_us(
            lambda: create_cipher("shake-ctr", _KEY, nonce), calls
        ),
        "crypto.ctr_4k_us": timed_us(lambda: cipher.xor_at(block, 0), calls),
        "crypto.ctr_mb_per_s": len(chunk) / chunk_us,
        # One sealed unit = its own context + the seal/open.
        "crypto.aead_seal_4k_us": timed_us(
            lambda: create_aead("shake-etm", _KEY, nonce).seal(block), calls
        ),
        "crypto.aead_open_4k_us": timed_us(
            lambda: create_aead("shake-etm", _KEY, nonce).open(sealed), calls
        ),
    }


def probe_keys(tmp: str, calls: int) -> dict:
    from repro.keys.cache import SecureDEKCache
    from repro.keys.client import KeyClient
    from repro.keys.kds import InMemoryKDS

    plain = KeyClient(InMemoryKDS(), "probe-server")
    cached = KeyClient(
        InMemoryKDS(), "probe-server",
        cache=SecureDEKCache(os.path.join(tmp, "probe.dekcache"), "probe"),
    )
    dek_id = cached.new_dek().dek_id
    return {
        "keys.new_dek_us": timed_us(plain.new_dek, calls),
        "keys.get_dek_cached_us": timed_us(
            lambda: cached.get_dek(dek_id), calls
        ),
    }


PROBES = (
    ("service.protocol", probe_protocol),
    ("lsm.wal", probe_wal),
    ("lsm.memtable", probe_memtable),
    ("lsm.sst", probe_sst),
    ("crypto", probe_crypto),
    ("keys", probe_keys),
)


def run_probes(tmp: str, calls: int = CALLS) -> tuple[dict, list[str]]:
    """(metric -> value, layers whose entry points are unavailable).
    ``tmp`` is a scratch directory for the probes' files."""
    values: dict = {}
    unavailable = []
    for layer, probe in PROBES:
        try:
            values.update(in_reference_time(lambda: probe(tmp, calls)))
        except (ImportError, AttributeError, TypeError) as exc:
            unavailable.append(f"{layer}: {exc!r}")
    return values, unavailable
