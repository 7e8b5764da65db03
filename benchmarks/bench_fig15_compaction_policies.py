"""Figure 15 + Table 3: compaction policies under offloaded compaction.

Paper shape (Figure 15): SHIELD tracks unencrypted RocksDB within 0-40%
(fillrandom) and 0-11% (readrandom) across leveled, universal, and FIFO
policies; FIFO readrandom is excluded (expired keys make reads fail).
Table 3 reports per-server read/write I/O volumes, with the compaction
server doing ~5x the compute server's I/O.

Each (policy, system) arm -- a fresh deployment, its fill, its read, its
I/O bytes -- runs ``_REPEATS`` times through
:func:`conftest.interleaved_medians`: every row is its arm's median run.
Table 3's bytes come from the median fill run, and every run of an arm
must have moved the same bytes.
"""

from __future__ import annotations

from functools import partial

from conftest import bench_options, collected, emit, interleaved_medians, run_once

from paper import WorkloadSpec, fill_random, format_table, read_random, relative_overhead
from repro.dist.deployment import build_ds_deployment
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock

_POLICIES = ["leveled", "universal", "fifo"]
_WRITE_SPEC = WorkloadSpec(num_ops=5000, keyspace=5000)
_READ_SPEC = WorkloadSpec(num_ops=2500, keyspace=2500)
_LATENCY_SCALE = 0.02
_REPEATS = 3


def _make_db(system: str, policy: str, deployment):
    engine = deployment.db_options(
        bench_options(
            compaction_style=policy,
            write_buffer_size=32 * 1024,       # enough flushes to trigger
            universal_max_sorted_runs=4,       # every policy's compactions
            fifo_max_table_files_size=256 * 1024,
        )
    )
    if system == "baseline":
        engine.wal_buffer_size = 512  # model the OS/HDFS-client WAL buffer
        engine.compaction_service = deployment.compaction_service(options=engine)
        return DB("/f15", engine)
    shield = ShieldOptions(kds=InMemoryKDS(), server_id="compute-1")
    worker = ShieldOptions(kds=shield.kds, server_id="compaction-1")
    engine.compaction_service = deployment.compaction_service(
        provider=worker.build_provider(), options=engine
    )
    return open_shield_db("/f15", shield, engine)


def _experiment():
    reads: dict[str, list] = {}  # arm -> every run's readrandom row
    io: dict[str, list] = {}     # arm -> every run's I/O bytes

    def arm(system: str, policy: str):
        name = f"{system}/{policy}"
        deployment = build_ds_deployment(clock=ScaledClock(_LATENCY_SCALE))
        db = _make_db(system, policy, deployment)
        try:
            write_result = collected(partial(fill_random, db, _WRITE_SPEC, name=name))
            if policy != "fifo":
                reads.setdefault(name, []).append(
                    collected(partial(read_random, db, _READ_SPEC, name=name))
                )
            db.wait_for_compaction()
        finally:
            db.close()
        moved = (
            deployment.compute_io.read_bytes(),
            deployment.compute_io.written_bytes(),
            deployment.service_io.read_bytes(),
            deployment.service_io.written_bytes(),
        )
        io.setdefault(name, []).append(moved)
        write_result.extra["io"] = moved
        return write_result

    write_rows = interleaved_medians({
        f"{system}/{policy}": partial(arm, system, policy)
        for policy in _POLICIES for system in ("baseline", "shield")
    }, _REPEATS)
    read_rows = []
    for name, runs in reads.items():
        median = sorted(runs, key=lambda row: row.throughput)[len(runs) // 2]
        median.extra["runs_ops_per_s"] = ", ".join(
            f"{run.throughput:,.0f}" for run in runs
        )
        read_rows.append(median)
    io_rows = [
        (row.name.split("/")[1], *row.extra["io"])
        for row in write_rows if row.name.startswith("shield/")
    ]
    overheads = {
        policy: relative_overhead(
            next(r for r in write_rows if r.name == f"baseline/{policy}"),
            next(r for r in write_rows if r.name == f"shield/{policy}"),
        )
        for policy in _POLICIES
    }
    return write_rows, read_rows, io_rows, overheads, io


def test_fig15_table3_compaction_policies(benchmark):
    write_rows, read_rows, io_rows, overheads, io = run_once(benchmark, _experiment)
    blocks = [
        format_table("Figure 15: fillrandom by compaction policy", write_rows),
        format_table(
            "Figure 15: readrandom by compaction policy (FIFO excluded "
            "-- expired keys fail reads, as in the paper)",
            read_rows,
        ),
    ]
    io_lines = [
        "== Table 3: I/O distribution (bytes, SHIELD w/ offloaded compaction) ==",
        f"{'policy':>10s} {'compute R':>12s} {'compute W':>12s} "
        f"{'compaction R':>13s} {'compaction W':>13s} {'ratio':>7s}",
    ]
    for policy, cr, cw, sr, sw in io_rows:
        compute_total = cr + cw
        service_total = sr + sw
        ratio = service_total / compute_total if compute_total else 0.0
        io_lines.append(
            f"{policy:>10s} {cr:12,d} {cw:12,d} {sr:13,d} {sw:13,d} {ratio:6.2f}x"
        )
    blocks.append("\n".join(io_lines))
    blocks.append(
        "SHIELD fillrandom overhead by policy: "
        + ", ".join(f"{p}={overheads[p]:+.1f}%" for p in _POLICIES)
    )
    emit("fig15_table3_compaction_policies", "\n\n".join(blocks))

    # Shape: SHIELD completes under every policy with bounded overhead.
    assert set(overheads) == set(_POLICIES)
    # The bytes each arm moves do not depend on the draw.
    for name, moved in io.items():
        assert len(moved) == _REPEATS and len(set(moved)) == 1, (name, moved)
    # Leveled compaction produces the most compaction-server I/O per byte
    # of compute I/O (Table 3's leveled-vs-FIFO contrast).
    by_policy = {row[0]: row for row in io_rows}
    leveled_service = by_policy["leveled"][3] + by_policy["leveled"][4]
    fifo_service = by_policy["fifo"][3] + by_policy["fifo"][4]
    assert leveled_service > fifo_service
