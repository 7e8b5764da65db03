"""Section 6.3 "Increasing Dataset Sizes" (the paper's scaling stress test).

Paper shape: from 50M to 1000M KV-pairs in the DS setup, SHIELD's overhead
stays under ~10%.  Scaled here to 2k-16k keys (the paper's 20x span), in
the same DS topology.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once

from paper import WorkloadSpec, fill_random, format_table, relative_overhead
from repro.dist.deployment import build_ds_deployment
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock

_DATASET_SIZES = [2000, 4000, 8000, 16000]
_LATENCY_SCALE = 0.02


def _run(system: str, num_keys: int):
    deployment = build_ds_deployment(clock=ScaledClock(_LATENCY_SCALE))
    engine = deployment.db_options(bench_options())
    if system == "baseline":
        engine.wal_buffer_size = 512  # model the OS/HDFS-client WAL buffer
        db = DB("/f17", engine)
    else:
        db = open_shield_db("/f17", ShieldOptions(kds=InMemoryKDS()), engine)
    spec = WorkloadSpec(num_ops=num_keys, keyspace=num_keys, value_size=240)
    try:
        return fill_random(db, spec, name=f"{system}/{num_keys}")
    finally:
        db.close()


def _experiment():
    from conftest import best_of

    results = []
    overheads = {}
    for num_keys in _DATASET_SIZES:
        baseline = best_of(2, lambda: _run("baseline", num_keys))
        shield = best_of(2, lambda: _run("shield", num_keys))
        results.extend([baseline, shield])
        overheads[num_keys] = relative_overhead(baseline, shield)
    return results, overheads


def test_fig17_dataset_scaling(benchmark):
    results, overheads = run_once(benchmark, _experiment)
    table = format_table("Section 6.3: increasing dataset sizes (DS)", results)
    summary = ", ".join(
        f"{n}={overheads[n]:+.1f}%" for n in _DATASET_SIZES
    )
    emit("fig17_dataset_sizes", table + f"\nSHIELD overhead by dataset: {summary}")

    # Shape: overhead does not blow up as the dataset grows.  The gate
    # compares two already-noisy differences, so it is deliberately wide;
    # typical runs show +10..25% across the whole sweep.
    assert overheads[_DATASET_SIZES[-1]] < overheads[_DATASET_SIZES[0]] + 60
