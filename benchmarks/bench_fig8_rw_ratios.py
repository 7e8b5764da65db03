"""Figure 8: throughput and p99 latency across read/write ratios
(monolith).

Paper shape: the encrypted systems' overhead decreases monotonically as
the read fraction grows, converging to <1% at 100% reads.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import bench_options, emit, run_once, run_workload_across_systems

from paper import WorkloadSpec, format_table, preload, read_write_mix, relative_overhead

_SYSTEMS = ["baseline", "encfs", "shield", "shield+walbuf"]
_RATIOS = [0.0, 0.25, 0.5, 0.75, 1.0]
_BASE_SPEC = WorkloadSpec(num_ops=4000, keyspace=3000)


def _experiment():
    tables = {}
    overhead_by_ratio = {}
    for ratio in _RATIOS:
        spec = replace(_BASE_SPEC, read_fraction=ratio)
        results = run_workload_across_systems(
            _SYSTEMS,
            lambda db, spec=spec: read_write_mix(db, spec),
            preload=lambda db, spec=spec: preload(db, spec),
            base_options=bench_options(),
            repeats=2,
        )
        tables[ratio] = results
        by_name = {result.name: result for result in results}
        overhead_by_ratio[ratio] = relative_overhead(
            by_name["baseline"], by_name["shield"]
        )
    return tables, overhead_by_ratio


def test_fig8_read_write_ratios(benchmark):
    tables, overhead_by_ratio = run_once(benchmark, _experiment)
    blocks = []
    for ratio, results in tables.items():
        blocks.append(
            format_table(
                f"Figure 8: {int(ratio * 100)}% reads",
                results,
                baseline_name="baseline",
            )
        )
    emit("fig8_rw_ratios", "\n\n".join(blocks))

    # Shape: pure-read overhead is far below pure-write overhead.
    assert overhead_by_ratio[1.0] < overhead_by_ratio[0.0]
    # And at 100% reads SHIELD is within Python-run noise of the baseline.
    assert overhead_by_ratio[1.0] < 40
