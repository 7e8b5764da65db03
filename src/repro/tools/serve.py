"""``repro-serve``: launch a networked KV server over an engine instance.

Examples::

    # A SHIELD-encrypted server on an in-memory env (smoke testing):
    python -m repro.tools.serve --port 7475

    # A persistent, sharded, SHIELD-encrypted server (the passkey wraps
    # the on-disk DEK cache so the database survives restarts):
    python -m repro.tools.serve --env local --db /var/lib/repro \
        --shards 4 --port 7475 --passkey secret

    # Plaintext engine (baseline measurements):
    python -m repro.tools.serve --plain --port 7475

    # Shard-per-core serving: 4 worker *processes*, each owning one shard
    # (its own WAL, block cache, DEK cache, KeyClient) behind an
    # event-loop front-end -- the GIL stops being the throughput ceiling:
    python -m repro.tools.serve --multiprocess --workers 4 \
        --env local --db /var/lib/repro --port 7475 --passkey secret

The in-process KDS this CLI builds stands in for a real key-distribution
deployment; point several servers at one KDS by embedding the library
instead (see DESIGN.md, "Serving tier").
"""

from __future__ import annotations

import argparse
import sys
import threading
from dataclasses import replace

from repro.dist.sharding import ShardedDB
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer
from repro.shield import ShieldOptions, open_shield_db


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description="Serve a (SHIELD-encrypted) LSM-KVS over the wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7475,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--db", default="/served",
                        help="database directory (root of the shards)")
    parser.add_argument("--env", default="mem", choices=["mem", "local"])
    parser.add_argument("--shards", type=int, default=1,
                        help="hash shards behind the front-end (1 = single DB)")
    parser.add_argument("--plain", action="store_true",
                        help="serve an unencrypted engine (no SHIELD)")
    parser.add_argument("--scheme", default="shake-ctr", help="cipher scheme")
    parser.add_argument("--passkey", default=None,
                        help="persist DEKs in a passkey-wrapped cache next to "
                        "--db so an encrypted database survives restarts "
                        "(the CLI's in-process KDS is ephemeral)")
    parser.add_argument("--wal-buffer", type=int, default=512)
    parser.add_argument("--write-buffer-size", type=int, default=4 * 1024 * 1024)
    parser.add_argument("--workers", type=int, default=4,
                        help="--multiprocess: the number of shard worker "
                        "processes (without it the server is one loop)")
    parser.add_argument("--multiprocess", action="store_true",
                        help="shard-per-core serving: fork --workers "
                        "processes, each owning one shard, behind an "
                        "event-loop front-end (--shards is ignored; the "
                        "shard count equals the worker count)")
    parser.add_argument("--require-auth", action="store_true",
                        help="demand a KDS-authorized AUTH before serving")
    parser.add_argument("--duration", type=float, default=None,
                        help="serve for N seconds then exit (default: forever)")
    return parser


def _shard_factory(args, kds, shared_dek_cache):
    """The shard constructor both serving modes use.

    In ``--multiprocess`` mode this closure runs *inside the forked
    worker*, so everything it builds -- env handles, the KeyClient, the
    DEK cache file -- is private to that process; the per-shard cache
    path keeps two workers from racing on one cache file.
    """

    def make_shard(index: int, path: str):
        env = LocalEnv() if args.env == "local" else MemEnv()
        if args.env == "local":
            env.mkdirs(path)
        options = Options(env=env, write_buffer_size=args.write_buffer_size)
        if args.plain:
            return DB(path, options)
        dek_cache = shared_dek_cache
        if dek_cache is None and args.passkey is not None and args.multiprocess:
            from repro.keys.cache import SecureDEKCache

            dek_cache = SecureDEKCache(
                f"{args.db}.dekcache-{index:03d}", args.passkey
            )
        shield = ShieldOptions(
            kds=kds,
            server_id=f"serve-shard-{index}",
            scheme=args.scheme,
            dek_cache=dek_cache,
            wal_buffer_size=args.wal_buffer,
        )
        return open_shield_db(path, shield, replace(options))

    return make_shard


def _make_db(args, kds):
    """Open the engine for the single-process server."""
    if args.env == "local":
        LocalEnv().mkdirs(args.db)
    # The CLI's KDS lives and dies with the process; without a durable DEK
    # store an encrypted --env local database could never be reopened.  A
    # passkey wraps one shared on-disk cache (the paper's secure DEK cache).
    dek_cache = None
    if args.passkey is not None and not args.plain:
        from repro.keys.cache import SecureDEKCache

        dek_cache = SecureDEKCache(args.db + ".dekcache", args.passkey)
    make_shard = _shard_factory(args, kds, dek_cache)
    if args.shards > 1:
        return ShardedDB(args.db, args.shards, make_shard)
    return make_shard(0, args.db)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    kds = InMemoryKDS()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        require_auth=args.require_auth,
        kds=kds,
    )
    db = None
    if args.multiprocess:
        # Worker processes open their own shards after the fork; the
        # front-end never holds an engine.  Each worker inherits a copy
        # of the in-process KDS, which is fine for the CLI's ephemeral
        # deployment (a real deployment points every worker at one
        # networked KDS).
        server = MultiProcessKVServer(
            args.db, args.workers, _shard_factory(args, kds, None), config
        )
        shard_desc = f"{args.workers} worker process(es)"
    else:
        db = _make_db(args, kds)
        server = KVServer(db, config)
        shard_desc = f"{args.shards} shard(s)"
    server.start()
    host, port = server.address
    mode = "plaintext" if args.plain else f"shield/{args.scheme}"
    print(
        f"serving {args.db} ({mode}, {shard_desc}) on {host}:{port}",
        flush=True,
    )
    try:
        if args.duration is not None:
            threading.Event().wait(args.duration)
        else:
            while True:
                threading.Event().wait(3600)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.stop()
        if db is not None:
            db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
