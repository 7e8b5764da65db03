"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every ``bench_*.py`` module regenerates one table or figure from the
paper's evaluation (the mapping lives in DESIGN.md section 4).  Results are
printed and also appended to ``benchmarks/results/<experiment>.txt`` so a
full ``pytest benchmarks/ --benchmark-only`` run leaves a written record
(EXPERIMENTS.md quotes those numbers).

Scale note: the paper runs 10-1000M-key workloads on two Xeon servers; this
reproduction runs 10^3-10^4-key workloads in pure Python.  Absolute
throughput is meaningless to compare; *relative* overhead (encrypted vs.
unencrypted in the identical harness) is the reproduced quantity.
"""

from __future__ import annotations

import gc
import os
from dataclasses import replace

from paper import RunResult, WorkloadSpec, fill_random, make_system, read_random
from repro.lsm.options import Options
from repro.obs import costs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# One warmup (first run in a process is reliably slower: allocator, module
# and cache warmup) guarded by a module-level flag.
_warmed_up = False


def _warmup() -> None:
    global _warmed_up
    if _warmed_up:
        return
    # Exercise the full stack (allocator, hashlib, memtable, compaction)
    # so the first measured system isn't penalized by interpreter warmup.
    spec = WorkloadSpec(num_ops=4000, keyspace=4000)
    db = make_system("baseline", base_options=bench_options())
    fill_random(db, spec)
    db.compact_range()
    read_random(db, spec)
    db.close()
    db = make_system("shield", base_options=bench_options())
    fill_random(db, WorkloadSpec(num_ops=1500, keyspace=1500))
    db.close()
    _warmed_up = True


def bench_options(**overrides) -> Options:
    """Engine options sized so short runs still flush and compact.

    The write-slowdown throttle is disabled: on a single core the faster
    (unencrypted) system backs its L0 up first and would absorb throttle
    delays the slower encrypted systems never see, inverting comparisons.
    The hard stop trigger still protects against runaway backlog.
    """
    defaults = dict(
        write_buffer_size=128 * 1024,
        block_size=4096,
        max_bytes_for_level_base=512 * 1024,
        target_file_size=256 * 1024,
        level0_file_num_compaction_trigger=4,
        max_background_jobs=2,
        slowdown_delay_s=0.0,
    )
    defaults.update(overrides)
    return Options(**defaults)


def collected(fn) -> RunResult:
    """``fn()`` under ``costs.collect()``: the row carries its own
    per-op-class encrypt/kds/io breakdown (the paper's latency-attribution
    decomposition)."""
    with costs.collect() as breakdown:
        result = fn()
    result.breakdown = result.breakdown or breakdown.as_dict()
    return result


def best_of(repeats: int, fn):
    """Run ``fn`` repeatedly (each :func:`collected`), keep the
    highest-throughput result.

    Single-core Python runs drift with allocator/caching warmup; for
    read-style workloads re-running on the same DB and keeping the best of
    two removes the bias that favours whichever system runs later.
    """
    runs = [collected(fn) for _ in range(max(1, repeats))]
    return max(runs, key=lambda run: run.throughput)


def interleaved_medians(arms: dict, repeats: int) -> list[RunResult]:
    """Run each arm (a thunk returning a RunResult) ``repeats`` times, each
    run :func:`collected`.

    The arms take turns in a rotated order, so drift over the experiment
    (compaction debt, machine load) lands on every arm alike, and each arm
    reports its median-throughput run: a scheduler hiccup moves one run,
    not the row.  Each row is named after its arm and lists every run's
    ops/s in ``extra["runs_ops_per_s"]``.
    """
    names = list(arms)
    runs = {name: [] for name in names}
    for repeat in range(repeats):
        shift = repeat % len(names)
        for name in names[shift:] + names[:shift]:
            gc.collect()
            runs[name].append(collected(arms[name]))
    medians = []
    for name in names:
        ranked = sorted(runs[name], key=lambda row: row.throughput)
        median = ranked[len(ranked) // 2]
        median.name = name
        median.extra["runs_ops_per_s"] = ", ".join(f"{r.throughput:,.0f}" for r in ranked)
        medians.append(median)
    return medians


def run_workload_across_systems(
    systems: list[str],
    workload,
    base_options: Options | None = None,
    preload=None,
    make_db=None,
    repeats: int = 1,
    fresh_repeats: int = 1,
) -> list[RunResult]:
    """Run one workload on a fresh DB per system; returns one row each.

    ``repeats`` re-runs the workload on the *same* DB and keeps the best
    (right for read-style workloads); ``fresh_repeats`` rebuilds the DB per
    attempt and keeps the best (right for fill-style workloads, where a
    second pass would hit compaction debt instead of a fresh tree).
    """
    _warmup()
    base = base_options or bench_options()
    results = []
    for system in systems:
        gc.collect()  # keep GC pauses from landing inside one system's run
        best = None
        for _ in range(max(1, fresh_repeats)):
            if make_db is not None:
                db = make_db(system)
            else:
                db = make_system(system, base_options=replace(base))
            try:
                if preload is not None:
                    preload(db)
                result = best_of(repeats, lambda: workload(db))
            finally:
                db.close()
            if best is None or result.throughput > best.throughput:
                best = result
        best.name = system
        results.append(best)
    return results


def emit(experiment: str, table: str) -> None:
    """Print the table and persist it under benchmarks/results/."""
    print()
    print(table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as handle:
        handle.write(table + "\n")


def make_ds_db(
    system: str,
    path: str = "/dsdb",
    base_options: Options | None = None,
    offload: bool = False,
    latency_scale: float = 0.02,
):
    """Open a DB in a fresh simulated DS deployment.

    Returns (db, deployment).  ``system`` is "baseline", "shield", or
    "shield+walbuf" -- the paper excludes EncFS from DS (incompatible with
    its HDFS plugin), and so do we.
    """
    from repro.dist.deployment import build_ds_deployment
    from repro.keys.kds import InMemoryKDS
    from repro.lsm.db import DB
    from repro.shield import ShieldOptions, open_shield_db
    from repro.util.clock import ScaledClock

    _warmup()
    gc.collect()
    deployment = build_ds_deployment(clock=ScaledClock(latency_scale))
    engine = deployment.db_options(base_options or bench_options())
    if system == "baseline":
        # Real RocksDB WAL writes land in the OS / HDFS-client buffer, not
        # one network round-trip per record; model that with the same
        # 512-byte batching SHIELD's buffer uses, so DS comparisons isolate
        # the *encryption* cost rather than penalizing the baseline.
        engine.wal_buffer_size = 512
        if offload:
            engine.compaction_service = deployment.compaction_service(
                options=engine
            )
        return DB(path, engine), deployment
    wal_buffer = 512 if system.endswith("+walbuf") else 0
    kds = InMemoryKDS()
    shield = ShieldOptions(
        kds=kds, server_id="compute-1", wal_buffer_size=wal_buffer
    )
    if offload:
        worker = ShieldOptions(kds=kds, server_id="compaction-1")
        engine.compaction_service = deployment.compaction_service(
            provider=worker.build_provider(), options=engine
        )
    return open_shield_db(path, shield, engine), deployment


def run_once(benchmark, experiment_fn):
    """Run a whole experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(experiment_fn, rounds=1, iterations=1)
