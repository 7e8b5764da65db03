"""Figure 21: YCSB over disaggregated storage.

Paper shape: SHIELD averages ~8% behind unencrypted RocksDB across
YCSB A-F in the DS deployment.
"""

from __future__ import annotations

from conftest import best_of, bench_options, emit, make_ds_db, run_once

from paper import YCSBSpec, format_table, load_ycsb, relative_overhead, run_ycsb

_SYSTEMS = ["baseline", "shield+walbuf"]
_WORKLOADS = ["A", "B", "C", "D", "E", "F"]
_SPEC = YCSBSpec(record_count=800, operation_count=700, value_size=1024)


def _experiment():
    blocks = {}
    overheads = {}
    for workload in _WORKLOADS:
        rows = []
        for system in _SYSTEMS:
            db, __ = make_ds_db(
                system, base_options=bench_options(write_buffer_size=256 * 1024)
            )
            try:
                load_ycsb(db, _SPEC)
                rows.append(best_of(2, lambda w=workload: run_ycsb(db, w, _SPEC, name=system)))
            finally:
                db.close()
        blocks[workload] = rows
        overheads[workload] = relative_overhead(rows[0], rows[1])
    return blocks, overheads


def test_fig21_ds_ycsb(benchmark):
    blocks, overheads = run_once(benchmark, _experiment)
    rendered = [
        format_table(
            f"Figure 21: YCSB-{workload} (DS)", rows, baseline_name="baseline"
        )
        for workload, rows in blocks.items()
    ]
    average = sum(overheads.values()) / len(overheads)
    rendered.append(
        "SHIELD overhead by workload: "
        + ", ".join(f"{w}={overheads[w]:+.1f}%" for w in _WORKLOADS)
        + f" | average={average:+.1f}%"
    )
    emit("fig21_ds_ycsb", "\n\n".join(rendered))

    # Shape: bounded average overhead (paper: ~8%).
    assert average < 40
