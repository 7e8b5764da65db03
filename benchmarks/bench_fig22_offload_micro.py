"""Figure 22: micro baselines with offloaded compaction.

Paper shape: with compaction running on the storage server and DEKs
retrieved over the network by DEK-ID, fillrandom disparity is ~17%;
reads stay close.
"""

from __future__ import annotations

from conftest import best_of, emit, make_ds_db, run_once

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

_SYSTEMS = ["baseline", "shield", "shield+walbuf"]
_WRITE_SPEC = WorkloadSpec(num_ops=4000, keyspace=4000)
_READ_SPEC = WorkloadSpec(num_ops=2000, keyspace=2000)
_MIX_SPEC = MixgraphSpec(num_ops=2000, keyspace=2000)


def _experiment():
    fill_rows, read_rows, mix_rows = [], [], []
    from conftest import bench_options

    write_options = bench_options(
        write_buffer_size=64 * 1024, level0_file_num_compaction_trigger=2
    )
    for system in _SYSTEMS:
        db, deployment = make_ds_db(system, offload=True,
                                    base_options=write_options)
        try:
            result = fill_random(db, _WRITE_SPEC, name=system)
            db.wait_for_compaction()
            service = db.options.compaction_service
            result.extra["offloaded_jobs"] = service.stats.counter(
                "service.jobs"
            ).value
            fill_rows.append(result)
        finally:
            db.close()
        db, __ = make_ds_db(system, offload=True)
        try:
            preload(db, _READ_SPEC)
            read_rows.append(best_of(2, lambda: read_random(db, _READ_SPEC, name=system)))
        finally:
            db.close()
        db, __ = make_ds_db(system, offload=True)
        try:
            preload_mixgraph(db, _MIX_SPEC)
            mix_rows.append(best_of(2, lambda: run_mixgraph(db, _MIX_SPEC, name=system)))
        finally:
            db.close()
    return fill_rows, read_rows, mix_rows


def test_fig22_offloaded_micro(benchmark):
    fill_rows, read_rows, mix_rows = run_once(benchmark, _experiment)
    blocks = [
        format_table(
            "Figure 22: fillrandom (offloaded compaction)",
            fill_rows,
            baseline_name="baseline",
            extra_columns=["offloaded_jobs"],
        ),
        format_table(
            "Figure 22: readrandom (offloaded compaction)",
            read_rows,
            baseline_name="baseline",
        ),
        format_table(
            "Figure 22: mixgraph (offloaded compaction)",
            mix_rows,
            baseline_name="baseline",
        ),
    ]
    emit("fig22_offload_micro", "\n\n".join(blocks))

    fill = {r.name: r for r in fill_rows}
    # Compaction genuinely ran offloaded.
    assert all(r.extra["offloaded_jobs"] > 0 for r in fill_rows)
    # Shape: bounded write gap (paper: ~17%).
    assert relative_overhead(fill["baseline"], fill["shield+walbuf"]) < 40
