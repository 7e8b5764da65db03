"""Ablation: block compression composed with SHIELD encryption.

The related work (Kim & Vetter) integrates compression + encryption in an
HPC KVS; this ablation verifies the pipeline order matters in ours:
compress-then-encrypt shrinks storage while ciphertext stays incompressible
-- and measures the CPU cost of stacking both.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once

from paper import RunResult, format_table, gen, make_system
from repro.env.mem import MemEnv

_NUM_KEYS = 4000
_VALUE = b"customer-record:" + b"field=value;" * 8  # compressible


def _run(name, system, compression):
    import time

    env = MemEnv()
    options = bench_options(compression=compression)
    db = make_system(system, base_options=options, env=env)
    try:
        start = time.perf_counter()
        for i in range(_NUM_KEYS):
            db.put(gen.key(i), _VALUE)
        db.compact_range()
        elapsed = time.perf_counter() - start
        sst_bytes = sum(
            env.file_size(f"/benchdb/{n}")
            for n in env.list_dir("/benchdb")
            if n.endswith(".sst")
        )
    finally:
        db.close()
    result = RunResult(name=name, ops=_NUM_KEYS, elapsed_s=elapsed)
    result.extra["sst_bytes"] = sst_bytes
    return result


def _experiment():
    return [
        _run("plain", "baseline", "none"),
        _run("plain+zlib", "baseline", "zlib"),
        _run("shield", "shield+walbuf", "none"),
        _run("shield+zlib", "shield+walbuf", "zlib"),
    ]


def test_ablation_compression_encryption(benchmark):
    rows = run_once(benchmark, _experiment)
    table = format_table(
        "Ablation: compression x encryption (load + settle)",
        rows,
        baseline_name="plain",
        extra_columns=["sst_bytes"],
    )
    emit("ablation_compression", table)

    by_name = {row.name: row for row in rows}
    # Compression shrinks storage even under encryption (compress happens
    # before encrypt, so ciphertext incompressibility doesn't matter).
    assert by_name["shield+zlib"].extra["sst_bytes"] \
        < by_name["shield"].extra["sst_bytes"] * 0.8
    assert by_name["plain+zlib"].extra["sst_bytes"] \
        < by_name["plain"].extra["sst_bytes"] * 0.8
    # Encrypted+compressed file sizes track the unencrypted+compressed ones
    # (encryption is length-preserving).
    ratio = (
        by_name["shield+zlib"].extra["sst_bytes"]
        / by_name["plain+zlib"].extra["sst_bytes"]
    )
    assert 0.9 < ratio < 1.1
