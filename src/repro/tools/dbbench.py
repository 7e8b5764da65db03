"""db_bench-style CLI.

Examples::

    python -m repro.tools.dbbench --benchmarks fillrandom,readrandom \
        --systems baseline,shield,shield+walbuf --num 5000
    python -m repro.tools.dbbench --benchmarks ycsb-A,mixgraph --num 2000
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import format_table
from repro.bench.mixgraph import MixgraphSpec, preload_mixgraph, run_mixgraph
from repro.bench.systems import SYSTEMS, make_system
from repro.bench.workloads import (
    WorkloadSpec,
    fill_random,
    fill_seq,
    preload,
    read_random,
    read_write_mix,
)
from repro.bench.ycsb import YCSBSpec, load_ycsb, run_ycsb
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.lsm.options import Options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.dbbench",
        description="Benchmark the SHIELD reproduction like db_bench.",
    )
    parser.add_argument(
        "--benchmarks",
        default="fillrandom",
        help="comma list: fillrandom,fillseq,readrandom,readwriterandom,"
        "mixgraph,ycsb-A..ycsb-F",
    )
    parser.add_argument(
        "--systems",
        default="baseline,shield+walbuf",
        help=f"comma list from: {','.join(SYSTEMS)}",
    )
    parser.add_argument("--num", type=int, default=5000, help="operations")
    parser.add_argument("--keyspace", type=int, default=0,
                        help="distinct keys (default: --num)")
    parser.add_argument("--key-size", type=int, default=16)
    parser.add_argument("--value-size", type=int, default=100)
    parser.add_argument("--read-fraction", type=float, default=0.5,
                        help="for readwriterandom")
    parser.add_argument("--wal-buffer", type=int, default=512)
    parser.add_argument("--write-buffer-size", type=int, default=128 * 1024)
    parser.add_argument("--compaction", default="leveled",
                        choices=["leveled", "universal", "fifo"])
    parser.add_argument("--compression", default="none",
                        choices=["none", "zlib"])
    parser.add_argument("--scheme", default="shake-ctr", help="cipher scheme")
    parser.add_argument("--env", default="mem", choices=["mem", "local"])
    parser.add_argument("--db", default="/dbbench",
                        help="database directory (for --env local)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--remote", default=None, metavar="HOST:PORT",
                        help="drive a running repro-serve endpoint over the "
                        "socket client instead of an embedded engine")
    parser.add_argument("--ds", action="store_true",
                        help="run against simulated disaggregated storage")
    parser.add_argument("--offload-compaction", action="store_true",
                        help="with --ds: run compaction on the storage server")
    parser.add_argument("--latency-scale", type=float, default=0.02,
                        help="with --ds: scale simulated network sleeps")
    return parser


def _make_env(args):
    if args.env == "local":
        env = LocalEnv()
        env.mkdirs(args.db)
        return env
    return MemEnv()


def _spec(args) -> WorkloadSpec:
    return WorkloadSpec(
        num_ops=args.num,
        keyspace=args.keyspace or args.num,
        key_size=args.key_size,
        value_size=args.value_size,
        seed=args.seed,
        read_fraction=args.read_fraction,
    )


def _make_ds_db(system: str, args, options: Options):
    from repro.dist.deployment import build_ds_deployment
    from repro.keys.kds import InMemoryKDS
    from repro.lsm.db import DB
    from repro.shield.config import ShieldOptions
    from repro.shield import open_shield_db
    from repro.util.clock import ScaledClock

    deployment = build_ds_deployment(clock=ScaledClock(args.latency_scale))
    engine = deployment.db_options(options)
    if system.startswith("encfs"):
        raise SystemExit(
            "EncFS is a monolithic design; it is not supported with --ds "
            "(the paper excludes it from DS for the same reason)"
        )
    if system.startswith("baseline"):
        engine.wal_buffer_size = args.wal_buffer  # OS/HDFS-buffer parity
        if args.offload_compaction:
            engine.compaction_service = deployment.compaction_service(
                options=engine
            )
        return DB(args.db, engine)
    kds = InMemoryKDS()
    wal_buffer = args.wal_buffer if system.endswith("+walbuf") else 0
    if args.offload_compaction:
        worker = ShieldOptions(
            kds=kds, server_id="compaction-1", scheme=args.scheme
        )
        engine.compaction_service = deployment.compaction_service(
            provider=worker.build_provider(), options=engine
        )
    shield = ShieldOptions(
        kds=kds, server_id="compute-1", scheme=args.scheme,
        wal_buffer_size=wal_buffer,
    )
    return open_shield_db(args.db, shield, engine)


def _make_remote_db(args):
    from repro.service.client import KVClient

    host, __, port = args.remote.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--remote wants HOST:PORT, got {args.remote!r}")
    return KVClient(host, int(port))


def _run_benchmark(name: str, system: str, args):
    options = Options(
        write_buffer_size=args.write_buffer_size,
        compaction_style=args.compaction,
        compression=args.compression,
    )
    if args.remote:
        db = _make_remote_db(args)
    elif args.ds:
        db = _make_ds_db(system, args, options)
    else:
        db = make_system(
            system,
            path=args.db,
            base_options=options,
            env=_make_env(args),
            scheme=args.scheme,
            wal_buffer=args.wal_buffer,
        )
    spec = _spec(args)
    try:
        if name == "fillrandom":
            return fill_random(db, spec, name=system)
        if name == "fillseq":
            return fill_seq(db, spec, name=system)
        if name == "readrandom":
            preload(db, spec)
            return read_random(db, spec, name=system)
        if name == "readwriterandom":
            preload(db, spec)
            return read_write_mix(db, spec, name=system)
        if name == "mixgraph":
            mix_spec = MixgraphSpec(
                num_ops=spec.num_ops, keyspace=spec.keyspace, seed=spec.seed
            )
            preload_mixgraph(db, mix_spec)
            return run_mixgraph(db, mix_spec, name=system)
        if name.startswith("ycsb-"):
            workload = name.split("-", 1)[1].upper()
            ycsb_spec = YCSBSpec(
                record_count=spec.keyspace,
                operation_count=spec.num_ops,
                value_size=max(spec.value_size, 1),
                seed=spec.seed,
            )
            load_ycsb(db, ycsb_spec)
            return run_ycsb(db, workload, ycsb_spec, name=system)
        raise SystemExit(f"unknown benchmark: {name}")
    finally:
        db.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    if args.remote:
        # The remote server decides its own encryption/sharding; there is
        # exactly one "system" under test -- the endpoint.
        systems = ["remote"]
    else:
        systems = [s.strip() for s in args.systems.split(",") if s.strip()]
        for system in systems:
            if system not in SYSTEMS:
                raise SystemExit(
                    f"unknown system {system!r}; pick from {SYSTEMS}"
                )
    for benchmark_name in benchmarks:
        results = [
            _run_benchmark(benchmark_name, system, args) for system in systems
        ]
        baseline = systems[0] if len(systems) > 1 else None
        print(format_table(benchmark_name, results, baseline_name=baseline))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
