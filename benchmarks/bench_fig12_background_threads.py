"""Figure 12: background-job scaling.

Paper shape: with scarce background resources (2 jobs), SHIELD+WAL-buffer
trails unbuffered unencrypted RocksDB slightly (~6%); with 4+ background
jobs the buffered SHIELD actually overtakes the unbuffered baseline
(~10% uplift) because the foreground path got cheaper.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once, run_workload_across_systems

from paper import WorkloadSpec, fill_random, format_table

_JOB_COUNTS = [1, 2, 4]
_SPEC = WorkloadSpec(num_ops=6000, keyspace=6000)


def _experiment():
    all_results = []
    ratio_by_jobs = {}
    for jobs in _JOB_COUNTS:
        options = bench_options(max_background_jobs=jobs)
        results = run_workload_across_systems(
            ["baseline", "shield+walbuf"],
            lambda db: fill_random(db, _SPEC),
            base_options=options,
        )
        for result in results:
            result.name = f"{result.name}@{jobs}bg"
        all_results.extend(results)
        ratio_by_jobs[jobs] = results[1].throughput / results[0].throughput
    return all_results, ratio_by_jobs


def test_fig12_background_threads(benchmark):
    all_results, ratio_by_jobs = run_once(benchmark, _experiment)
    table = format_table("Figure 12: background-job scaling", all_results)
    ratios = ", ".join(
        f"{jobs}bg={ratio_by_jobs[jobs]:.2f}x" for jobs in _JOB_COUNTS
    )
    emit(
        "fig12_background_threads",
        table + f"\nSHIELD+WAL-buf / unencrypted-unbuffered ratio: {ratios}",
    )

    # Shape: more background resources never hurt SHIELD's relative
    # position (generous slack for scheduler noise).
    assert ratio_by_jobs[_JOB_COUNTS[-1]] > ratio_by_jobs[_JOB_COUNTS[0]] * 0.7
