"""Figure 23: read/write-ratio sweep with offloaded compaction.

Paper shape: same picture as Figure 20 with the compaction I/O moved to
the storage server; SHIELD stays within ~6-14% of baseline.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import best_of, emit, make_ds_db, run_once

from paper import WorkloadSpec, format_table, preload, read_write_mix, relative_overhead

_SYSTEMS = ["baseline", "shield+walbuf"]
_RATIOS = [0.25, 0.5, 0.75]
_BASE_SPEC = WorkloadSpec(num_ops=2500, keyspace=2000)


def _experiment():
    blocks = {}
    overheads = {}
    for ratio in _RATIOS:
        spec = replace(_BASE_SPEC, read_fraction=ratio)
        rows = []
        for system in _SYSTEMS:
            db, __ = make_ds_db(system, offload=True)
            try:
                preload(db, spec)
                rows.append(best_of(2, lambda: read_write_mix(db, spec, name=system)))
            finally:
                db.close()
        blocks[ratio] = rows
        overheads[ratio] = relative_overhead(rows[0], rows[1])
    return blocks, overheads


def test_fig23_offload_rw_ratios(benchmark):
    blocks, overheads = run_once(benchmark, _experiment)
    rendered = [
        format_table(
            f"Figure 23: {int(ratio * 100)}% reads (offloaded compaction)",
            rows,
            baseline_name="baseline",
        )
        for ratio, rows in blocks.items()
    ]
    rendered.append(
        "SHIELD overhead by ratio: "
        + ", ".join(f"{int(r*100)}%r={overheads[r]:+.1f}%" for r in _RATIOS)
    )
    emit("fig23_offload_ratios", "\n\n".join(rendered))
    assert all(overhead < 40 for overhead in overheads.values())
