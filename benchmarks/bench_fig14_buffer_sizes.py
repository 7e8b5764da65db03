"""Figure 14: WAL buffer size sweep.

Paper shape: growing the application-managed buffer from 0 (per-record
encryption) to 2048 bytes shrinks fillrandom overhead from ~32%/36%
(EncFS/SHIELD) to ~7%/10%.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once

from paper import (
    WorkloadSpec,
    fill_random,
    format_table,
    make_system,
    relative_overhead,
)

_BUFFER_SIZES = [0, 128, 512, 2048]
_SPEC = WorkloadSpec(num_ops=6000, keyspace=6000)


def _experiment():
    results = []
    shield_overheads = {}
    baseline_db = make_system("baseline", base_options=bench_options())
    try:
        baseline = fill_random(baseline_db, _SPEC, name="baseline")
    finally:
        baseline_db.close()
    results.append(baseline)
    for system in ("encfs", "shield"):
        for buffer_size in _BUFFER_SIZES:
            db = make_system(
                f"{system}+walbuf" if buffer_size else system,
                base_options=bench_options(),
                wal_buffer=buffer_size,
            )
            try:
                result = fill_random(db, _SPEC, name=f"{system}@{buffer_size}B")
            finally:
                db.close()
            results.append(result)
            if system == "shield":
                shield_overheads[buffer_size] = relative_overhead(baseline, result)
    return results, shield_overheads


def test_fig14_wal_buffer_sizes(benchmark):
    results, shield_overheads = run_once(benchmark, _experiment)
    table = format_table(
        "Figure 14: WAL buffer size sweep (fillrandom)",
        results,
        baseline_name="baseline",
    )
    summary = ", ".join(
        f"{size}B={shield_overheads[size]:+.1f}%" for size in _BUFFER_SIZES
    )
    emit("fig14_buffer_sizes", table + f"\nSHIELD overhead by buffer: {summary}")

    # Shape: a 2 KiB buffer beats no buffer by a wide margin.
    assert shield_overheads[2048] < shield_overheads[0]
