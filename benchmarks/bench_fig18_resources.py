"""Figure 18: sensitivity to CPU, memory, and network bandwidth.

Paper shape: SHIELD in the offloaded-compaction setup is barely moved by
CPU core count and RAM, but raising network bandwidth improves throughput
by ~77% -- the system is bandwidth-bound.  We model the three knobs as:
CPU -> background jobs + encryption threads; RAM -> write buffer + block
cache; bandwidth -> the simulated link's bytes/sec.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once

from paper import WorkloadSpec, fill_random, format_table
from repro.dist.deployment import build_ds_deployment
from repro.dist.network import NetworkConfig
from repro.keys.kds import InMemoryKDS
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock

_SPEC = WorkloadSpec(num_ops=2500, keyspace=2500, value_size=1024)
_LATENCY_SCALE = 0.05


def _run(name: str, *, jobs=2, write_buffer=128 * 1024, cache=1 << 20,
         bandwidth=1_000_000):
    deployment = build_ds_deployment(
        network=NetworkConfig(rtt_s=500e-6, bandwidth_bytes_per_s=bandwidth),
        clock=ScaledClock(_LATENCY_SCALE),
    )
    engine = deployment.db_options(
        bench_options(
            max_background_jobs=jobs,
            write_buffer_size=write_buffer,
            block_cache_size=cache,
        )
    )
    db = open_shield_db("/f18", ShieldOptions(kds=InMemoryKDS()), engine)
    try:
        return fill_random(db, _SPEC, name=name)
    finally:
        db.close()


def _experiment():
    results = []
    # (a) "CPU cores": background parallelism.
    for jobs in (1, 2, 4):
        results.append(_run(f"cpu-{jobs}jobs", jobs=jobs))
    # (b) "RAM": memtable + cache budget.
    for ram_kb in (32, 128, 512):
        results.append(
            _run(
                f"ram-{ram_kb}KB",
                write_buffer=ram_kb * 1024,
                cache=ram_kb * 1024 * 8,
            )
        )
    # (c) bandwidth sweep (simulated link bytes/sec); 1 KB values make the
    # serialization delay the dominant cost at the low end, as the paper's
    # TC-throttled 1 Gbps link was.
    for bandwidth_kb in (125, 500, 4000):
        results.append(
            _run(f"bw-{bandwidth_kb}KBps", bandwidth=bandwidth_kb * 1000)
        )
    return results


def test_fig18_resource_sensitivity(benchmark):
    results = run_once(benchmark, _experiment)
    table = format_table("Figure 18: CPU / RAM / bandwidth sensitivity", results)
    emit("fig18_resources", table)

    by_name = {result.name: result for result in results}
    # Shape: bandwidth is the dominant knob (paper: ~77% uplift).
    bw_uplift = by_name["bw-4000KBps"].throughput / by_name["bw-125KBps"].throughput
    cpu_uplift = by_name["cpu-4jobs"].throughput / by_name["cpu-1jobs"].throughput
    assert bw_uplift > 1.3
    assert bw_uplift > cpu_uplift * 0.9
