"""Figure 9: YCSB A-F in the monolithic setup.

Paper shape: overheads of 2-15% (EncFS) and 1-23% (SHIELD) with the
smallest gap on the read-heavy workloads (D is ~0% for SHIELD).

Beyond the paper, ``test_fig9_aead_vs_ctr`` prices SHIELD++'s AEAD
sealing (shake-etm: a MAC per unit) against the paper's CTR on the
write-heavy A and the read-only C, as ``aead_overhead_pct``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from conftest import (
    bench_options,
    emit,
    interleaved_medians,
    run_once,
    run_workload_across_systems,
)

from paper import (
    YCSBSpec,
    format_table,
    load_ycsb,
    make_system,
    relative_overhead,
    run_ycsb,
)

_SYSTEMS = ["baseline", "encfs+walbuf", "shield+walbuf"]
_SPEC = YCSBSpec(record_count=1500, operation_count=1200, value_size=1024)
_WORKLOADS = ["A", "B", "C", "D", "E", "F"]
_SCHEMES = ["shake-ctr", "shake-etm"]
#: Long enough that a read-only run lasts ~100 ms, over a scheduler quantum.
_AEAD_SPEC = replace(_SPEC, operation_count=4000)


def _experiment():
    blocks = {}
    overheads = {}
    for workload in _WORKLOADS:
        results = run_workload_across_systems(
            _SYSTEMS,
            lambda db, w=workload: run_ycsb(db, w, _SPEC),
            preload=lambda db: load_ycsb(db, _SPEC),
            base_options=bench_options(write_buffer_size=256 * 1024),
            repeats=2,
        )
        blocks[workload] = results
        by_name = {result.name: result for result in results}
        overheads[workload] = relative_overhead(
            by_name["baseline"], by_name["shield+walbuf"]
        )
    return blocks, overheads


def test_fig9_ycsb_monolith(benchmark):
    blocks, overheads = run_once(benchmark, _experiment)
    rendered = []
    for workload, results in blocks.items():
        rendered.append(
            format_table(
                f"Figure 9: YCSB-{workload} (monolith)",
                results,
                baseline_name="baseline",
            )
        )
    rendered.append(
        "SHIELD overhead by workload: "
        + ", ".join(f"{w}={overheads[w]:+.1f}%" for w in _WORKLOADS)
    )
    emit("fig9_ycsb_monolith", "\n\n".join(rendered))

    # Read-mostly workloads (B, C, D) must sit at the low end of overhead.
    read_mostly = min(overheads["B"], overheads["C"], overheads["D"])
    write_heavy = overheads["A"]
    assert read_mostly < write_heavy + 25  # generous ordering slack
    # And nothing should be catastrophically slow (paper max is 23%;
    # Python-scale noise gets a wider ceiling, recorded in EXPERIMENTS.md).
    assert max(overheads.values()) < 85


def _aead_vs_ctr(workload: str) -> list:
    dbs = [
        make_system(
            "shield+walbuf",
            base_options=bench_options(write_buffer_size=256 * 1024),
            scheme=scheme,
        )
        for scheme in _SCHEMES
    ]
    try:
        for db in dbs:
            load_ycsb(db, _SPEC)
        return interleaved_medians(
            {
                scheme: partial(run_ycsb, db, workload, _AEAD_SPEC)
                for scheme, db in zip(_SCHEMES, dbs)
            },
            repeats=5,
        )
    finally:
        for db in dbs:
            db.close()


def test_fig9_aead_vs_ctr(benchmark):
    blocks = run_once(benchmark, lambda: {w: _aead_vs_ctr(w) for w in ("A", "C")})
    overheads = {w: relative_overhead(*rows) for w, rows in blocks.items()}
    rendered = [
        format_table(
            f"SHIELD++ (AEAD) vs CTR: YCSB-{w} (median of 5)",
            rows,
            baseline_name="shake-ctr",
            extra_columns=["runs_ops_per_s"],
        )
        for w, rows in blocks.items()
    ]
    rendered.append(
        "aead_overhead_pct: " + ", ".join(f"{w}={o:+.1f}%" for w, o in overheads.items())
    )
    emit("fig9_aead_vs_ctr", "\n\n".join(rendered))

    # Shape: the per-unit MAC is paid on writes; the read-only mix mostly
    # rides the block cache, so it pays less (with Python-noise slack).
    assert overheads["C"] < overheads["A"] + 25
