"""Figure 7: monolithic micro benchmarks -- fillrandom, readrandom, and
Mixgraph across the six systems.

Paper shape: fillrandom regressions of ~33% (EncFS) / ~36% (SHIELD)
unbuffered, roughly halved with the WAL buffer; readrandom within ~1% of
baseline for every system (decryption hides inside LSM read latency);
Mixgraph ~10-13%.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once, run_workload_across_systems

from paper import (
    MixgraphSpec,
    WorkloadSpec,
    fill_random,
    format_table,
    preload,
    preload_mixgraph,
    read_random,
    relative_overhead,
    run_mixgraph,
)

_SYSTEMS = [
    "baseline",
    "baseline+walbuf",
    "encfs",
    "encfs+walbuf",
    "shield",
    "shield+walbuf",
]
_WRITE_SPEC = WorkloadSpec(num_ops=6000, keyspace=6000)
_READ_SPEC = WorkloadSpec(num_ops=4000, keyspace=2500)


def test_fig7_fillrandom(benchmark):
    results = run_once(
        benchmark,
        lambda: run_workload_across_systems(
            _SYSTEMS,
            lambda db: fill_random(db, _WRITE_SPEC),
            fresh_repeats=2,
        ),
    )
    table = format_table(
        "Figure 7: fillrandom (monolith)", results, baseline_name="baseline"
    )
    emit("fig7_fillrandom", table)
    by_name = {result.name: result for result in results}
    # Unbuffered encrypted systems pay a clear write-path penalty...
    assert relative_overhead(by_name["baseline"], by_name["shield"]) > 10
    assert relative_overhead(by_name["baseline"], by_name["encfs"]) > 10
    # ...and the WAL buffer claws a large part of it back (typical win is
    # 20-50%; the gate tolerates full-suite GC noise).
    assert by_name["shield+walbuf"].throughput > by_name["shield"].throughput * 0.85
    assert by_name["encfs+walbuf"].throughput > by_name["encfs"].throughput * 0.85


def test_fig7_readrandom(benchmark):
    def experiment():
        return run_workload_across_systems(
            _SYSTEMS,
            lambda db: read_random(db, _READ_SPEC),
            preload=lambda db: preload(db, _READ_SPEC),
            repeats=2,
        )

    results = run_once(benchmark, experiment)
    table = format_table(
        "Figure 7: readrandom (monolith)", results, baseline_name="baseline"
    )
    emit("fig7_readrandom", table)
    by_name = {result.name: result for result in results}
    # Reads hide decryption inside LSM latency: small overhead (paper: <1%;
    # we allow Python-noise slack).
    for name in ("encfs", "shield"):
        overhead = relative_overhead(by_name["baseline"], by_name[name])
        assert overhead < 40, f"{name} read overhead {overhead:.1f}% too large"


def test_fig7_mixgraph(benchmark):
    spec = MixgraphSpec(num_ops=4000, keyspace=3000)

    def experiment():
        return run_workload_across_systems(
            _SYSTEMS,
            lambda db: run_mixgraph(db, spec),
            preload=lambda db: preload_mixgraph(db, spec),
            base_options=bench_options(),
            repeats=2,
        )

    results = run_once(benchmark, experiment)
    table = format_table(
        "Figure 7: mixgraph (monolith)",
        results,
        baseline_name="baseline",
        extra_columns=["get", "put", "scan"],
    )
    emit("fig7_mixgraph", table)
    by_name = {result.name: result for result in results}
    # Mixed workloads sit between the write-path worst case and the free
    # read case (paper: 10-13%).
    fill_gap = 60  # generous ceiling for Python noise
    overhead = relative_overhead(by_name["baseline"], by_name["shield+walbuf"])
    assert overhead < fill_gap
