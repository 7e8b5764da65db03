"""Table 2: the impact of encrypting WAL writes.

Paper numbers (fillrandom ops/sec): no encryption 291,966; encrypted SST
only -3.9%; encrypted SST & WAL -32.8%.  The reproduced claim is the
*shape*: SST-only encryption is nearly free (background, amortized over
large writes), while adding per-record WAL encryption costs a large
double-digit percentage.
"""

from __future__ import annotations

from conftest import bench_options, run_once

from paper import WorkloadSpec, fill_random, format_table, relative_overhead
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.shield import ShieldOptions, open_shield_db
from repro.lsm.db import DB
from conftest import emit

_SPEC = WorkloadSpec(num_ops=6000, keyspace=6000)


def _run_config(name: str, encrypt_sst: bool, encrypt_wal: bool):
    options = bench_options(env=MemEnv())
    if not encrypt_sst and not encrypt_wal:
        db = DB("/t2", options)
    else:
        shield = ShieldOptions(
            kds=InMemoryKDS(),
            encrypt_sst=encrypt_sst,
            encrypt_wal=encrypt_wal,
            encrypt_manifest=False,
            wal_buffer_size=0,  # Table 2 measures the unbuffered WAL cost
        )
        db = open_shield_db("/t2", shield, options)
    try:
        result = fill_random(db, _SPEC, name=name)
    finally:
        db.close()
    return result


def _experiment():
    from conftest import _warmup, best_of

    _warmup()
    return [
        best_of(2, lambda: _run_config(
            "no-encryption", encrypt_sst=False, encrypt_wal=False)),
        best_of(2, lambda: _run_config(
            "encrypted-sst", encrypt_sst=True, encrypt_wal=False)),
        best_of(2, lambda: _run_config(
            "encrypted-all", encrypt_sst=True, encrypt_wal=True)),
    ]


def test_table2_wal_encryption_impact(benchmark):
    results = run_once(benchmark, _experiment)
    table = format_table(
        "Table 2: impact of encryption for WAL-writes (fillrandom)",
        results,
        baseline_name="no-encryption",
    )
    emit("table2_wal_impact", table)

    baseline, sst_only, everything = results
    sst_overhead = relative_overhead(baseline, sst_only)
    all_overhead = relative_overhead(baseline, everything)
    # Paper shape: SST-only is cheap, adding the WAL is the big cost.
    assert all_overhead > sst_overhead
    assert everything.throughput < baseline.throughput
