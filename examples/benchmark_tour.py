#!/usr/bin/env python3
"""A five-minute tour of the paper's evaluation, at demo scale.

Runs the headline comparisons on your machine and prints the tables and
bar charts the full benchmark suite (`pytest benchmarks/ --benchmark-only`)
produces at larger scale:

1. Table 2   -- what encrypting the WAL costs;
2. Figure 7  -- the four systems on fillrandom and readrandom;
3. Figure 14 -- how the WAL buffer buys the overhead back;
4. Figure 19 -- the same story on disaggregated storage.

Run:  python examples/benchmark_tour.py
"""

import os
import sys
from dataclasses import replace

from repro.dist.deployment import build_ds_deployment
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))
from paper import (  # noqa: E402  (benchmarks/paper.py: the figures' workloads)
    WorkloadSpec,
    ascii_bar_chart,
    fill_random,
    format_table,
    make_system,
    preload,
    read_random,
)

SPEC = WorkloadSpec(num_ops=3000, keyspace=3000)
OPTIONS = Options(write_buffer_size=128 * 1024)


def _warmup():
    db = make_system("baseline", base_options=replace(OPTIONS))
    fill_random(db, WorkloadSpec(num_ops=1000, keyspace=1000))
    db.close()


def monolith_micro():
    print("\n--- Figure 7 (demo scale): monolith micro ---")
    systems = ["baseline", "encfs", "shield", "shield+walbuf"]
    fill_rows, read_rows = [], []
    for system in systems:
        db = make_system(system, base_options=replace(OPTIONS))
        result = fill_random(db, SPEC, name=system)
        fill_rows.append(result)
        db.close()
        db = make_system(system, base_options=replace(OPTIONS))
        preload(db, SPEC)
        read_rows.append(read_random(db, SPEC, name=system))
        db.close()
    print(ascii_bar_chart("fillrandom", fill_rows))
    print(ascii_bar_chart("readrandom", read_rows))
    print(format_table("fillrandom detail", fill_rows, baseline_name="baseline"))


def wal_buffer_sweep():
    print("\n--- Figure 14 (demo scale): WAL buffer sweep ---")
    rows = []
    for buffer_size in (0, 512, 2048):
        db = make_system(
            "shield+walbuf" if buffer_size else "shield",
            base_options=replace(OPTIONS),
            wal_buffer=buffer_size,
        )
        rows.append(fill_random(db, SPEC, name=f"shield@{buffer_size}B"))
        db.close()
    print(ascii_bar_chart("SHIELD fillrandom by WAL buffer size", rows))


def table2():
    print("\n--- Table 2 (demo scale): the WAL encryption cost ---")
    rows = []
    for name, encrypt_sst, encrypt_wal in (
        ("no-encryption", False, False),
        ("encrypted-sst", True, False),
        ("encrypted-all", True, True),
    ):
        if not encrypt_sst:
            db = DB("/t2-demo", replace(OPTIONS))
        else:
            shield = ShieldOptions(
                kds=InMemoryKDS(),
                encrypt_sst=True,
                encrypt_wal=encrypt_wal,
                encrypt_manifest=False,
                wal_buffer_size=0,
            )
            db = open_shield_db("/t2-demo", shield, replace(OPTIONS))
        rows.append(fill_random(db, SPEC, name=name))
        db.close()
    print(format_table("Table 2", rows, baseline_name="no-encryption"))


def ds_fillrandom():
    print("\n--- Figure 19 (demo scale): disaggregated storage ---")
    rows = []
    for system in ("baseline", "shield+walbuf"):
        deployment = build_ds_deployment(clock=ScaledClock(0.02))
        engine = deployment.db_options(replace(OPTIONS))
        if system == "baseline":
            engine.wal_buffer_size = 512  # model the OS/HDFS WAL buffer
            db = DB("/ds-demo", engine)
        else:
            db = open_shield_db(
                "/ds-demo", ShieldOptions(kds=InMemoryKDS()), engine
            )
        rows.append(fill_random(db, SPEC, name=system))
        db.close()
    print(ascii_bar_chart("fillrandom over the simulated link", rows))
    print("The network absorbs most of the encryption overhead (paper: ~5%).")


def main() -> None:
    print("Warming up the interpreter ...")
    _warmup()
    table2()
    monolith_micro()
    wal_buffer_sweep()
    ds_fillrandom()
    print("\nFull suite: pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    main()
