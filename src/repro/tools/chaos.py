"""Chaos harness: SIGKILL shard workers of the multi-process server.

Every run is seeded so a red run replays exactly.  (Faults and crashes
inside one process are not modes here: they are the ``fault_window`` and
``crash_at`` rules of the model test, ``tests/test_scan_model.py``, with
the model's one oracle.)

**Worker-kill chaos** (:func:`run_worker_chaos`) targets the shard-per-core
server: a seeded schedule SIGKILLs random worker *processes* of a
:class:`~repro.service.workers.MultiProcessKVServer` mid-workload, under a
``KVClient`` that found the workers and talks to each itself.  A kill is a
reset connection, then a reconnect that waits in the shard's listener
until the worker is respawned on the same shard path -- a retry, never a
terminal error -- and every acknowledged write must still read back
afterwards (the shards run with synced WALs, so an ack survives a
SIGKILL).  Only *acknowledged* operations join the expected state;
operations that failed after retries are tracked as in-doubt (either
outcome is legal).

The engines run *plain* here by design: a respawned worker builds its
state from the shard directory alone, and the CLI's in-process KDS cannot
outlive a killed worker -- encrypted worker-respawn needs the shared KDS a
real deployment has (see DESIGN.md §10).

CLI::

    python -m repro.tools.chaos --seed 7 --out report.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time

from repro.env.local import LocalEnv
from repro.errors import ReproError
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service.client import KVClient
from repro.service.server import ServiceConfig
from repro.service.workers import MultiProcessKVServer

#: A deleted key's expected outcome (None doubles as "key may be absent").
_TOMBSTONE = None

PROFILES = {
    "fast": {"ops": 400, "crashes": 1, "keys": 200},
    "full": {"ops": 4000, "crashes": 3, "keys": 400},
}


def _key(index: int) -> bytes:
    return b"k%06d" % index


def _value(index: int) -> bytes:
    return (b"v%06d." % index) + b"x" * 40


def _engine_options(env) -> Options:
    """A tree that flushes and compacts within a few dozen ops, with synced
    WALs (an ack must survive a kill)."""
    return Options(
        env=env,
        write_buffer_size=4096,
        block_size=512,
        level0_file_num_compaction_trigger=2,
        wal_sync_writes=True,
        max_background_jobs=2,
        slowdown_delay_s=0.0,
    )


def _quietly(*calls) -> None:
    """Best-effort teardown: every call runs, whatever the earlier ones
    raised (already dead is fine)."""
    for call in calls:
        try:
            call()
        except Exception:  # noqa: BLE001
            pass


def _wait_healthy(is_healthy) -> bool:
    """Poll ``is_healthy()`` for up to 15 s; an error counts as not yet."""
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        try:
            if is_healthy():
                return True
        except (ReproError, OSError):
            pass
        time.sleep(0.05)
    return False


class _Oracle:
    """The workload's op mix and what it may legally read back, whatever
    the driver does to the workers between ops.

    Expected state is the last *acknowledged* outcome per key, plus the set
    of in-doubt outcomes (ops that failed after retries -- the server may or
    may not have applied them; either result is legal at read-back).
    """

    #: Share of ops that are puts; the rest are gets, deletes and scans.
    PUT_SHARE = 0.65

    def __init__(self, rng: random.Random, keyspace: int, counters: dict):
        self.rng = rng
        self.keyspace = keyspace
        self.counters = counters  # bumps "acked" and "failed"
        self.acked: dict[bytes, bytes | None] = {}
        self.indoubt: dict[bytes, set] = {}
        self.mismatches: list[dict] = []
        self.verified = 0

    def _check(self, key: bytes, got, **where) -> None:
        allowed = {self.acked.get(key, _TOMBSTONE)}
        allowed |= self.indoubt.get(key, set())
        if got not in allowed:
            self.mismatches.append({
                **where,
                "key": key.decode(),
                "got": None if got is None else got.decode(),
            })

    def op(self, client: KVClient, op_index: int) -> None:
        """One put / get-check / delete / scan, drawn from the seeded rng."""
        key = _key(self.rng.randrange(self.keyspace))
        roll = self.rng.random()
        wrote = ()  # (value,) or (_TOMBSTONE,): acked, or left in doubt
        try:
            if roll < self.PUT_SHARE:
                wrote = (_value(op_index),)
                client.put(key, wrote[0])
            elif roll < 0.85:
                self._check(
                    key, client.get(key), op=op_index, phase="inline-read"
                )
            elif roll < 0.95:
                wrote = (_TOMBSTONE,)
                client.delete(key)
            else:
                scanned = client.scan(_key(0), _key(self.keyspace), limit=20)
                keys = [k for k, __ in scanned]
                if keys != sorted(keys):
                    self.mismatches.append({
                        "op": op_index,
                        "phase": "scan-order",
                        "got": "unordered scatter-gather scan",
                    })
        except (ReproError, OSError):
            self.counters["failed"] += 1
            if wrote:
                self.indoubt.setdefault(key, set()).add(wrote[0])
        else:
            self.counters["acked"] += 1
            if wrote:
                self.acked[key] = wrote[0]
                self.indoubt.pop(key, None)

    def read_back(self, client: KVClient) -> None:
        """Every key ever touched must hold an allowed outcome."""
        for key in sorted(set(self.acked) | set(self.indoubt)):
            try:
                got = client.get(key)
            except (ReproError, OSError) as exc:
                self.mismatches.append({
                    "key": key.decode(),
                    "got": f"error: {exc!r}",
                    "phase": "read-back",
                })
                continue
            self.verified += 1
            self._check(key, got, phase="read-back")

    def verdict(self, healthy: bool, also: bool = True) -> dict:
        """The report's tail; ``also`` is what else the driver demands."""
        return {
            "counters": self.counters,
            "keys_tracked": len(set(self.acked) | set(self.indoubt)),
            "keys_verified": self.verified,
            "mismatches": self.mismatches,
            "healthy_at_end": healthy,
            "ok": (
                healthy and not self.mismatches
                and self.counters["acked"] > 0 and also
            ),
        }


def run_worker_chaos(
    seed: int = 0, profile: str = "fast", num_workers: int = 3,
) -> dict:
    """SIGKILL random shard workers mid-workload; verify zero acked loss.

    The engines are plain (unencrypted) on a local filesystem with synced
    WALs: the respawned worker must rebuild everything from its shard
    directory, so any acknowledged write a kill destroys is a real
    durability bug, not a key-distribution artifact.
    """
    spec = PROFILES[profile]
    rng = random.Random(seed ^ 0x3C4A)
    base = tempfile.mkdtemp(prefix="repro-worker-chaos-")

    def make_shard(index: int, path: str) -> DB:
        env = LocalEnv()
        env.mkdirs(path)
        return DB(path, _engine_options(env))

    server = MultiProcessKVServer(
        f"{base}/db", num_workers, make_shard,
        ServiceConfig(
            port=0, health_check_interval_s=0.05, drain_timeout_s=2.0,
        ),
    ).start()
    client = KVClient(
        *server.address,
        pool_size=2,
        timeout_s=5.0,
        max_retries=10,
        backoff_base_s=0.005,
        backoff_max_s=0.1,
        deadline_s=5.0,
        rng=random.Random(seed ^ 0xC11E),
    )

    ops = spec["ops"]
    kill_count = max(2, spec["crashes"] * 2)
    kill_at = sorted(
        rng.sample(range(ops // 10, ops - ops // 10), kill_count)
    )

    counters = {"ops": 0, "acked": 0, "failed": 0, "kills": 0}
    oracle = _Oracle(rng, spec["keys"], counters)

    try:
        for op_index in range(ops):
            counters["ops"] += 1
            if op_index in kill_at:
                victims = [pid for pid in server.worker_pids if pid]
                if victims:
                    counters["kills"] += 1
                    try:
                        os.kill(rng.choice(victims), signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            oracle.op(client, op_index)

        # Every worker must be back (respawned) and healthy.
        healthy = _wait_healthy(
            lambda: client.health()["state"] == "healthy"
            and all(server.worker_pids)
        )
        oracle.read_back(client)
        stats = server.stats.snapshot()
    finally:
        _quietly(client.close, server.stop)
        shutil.rmtree(base, ignore_errors=True)

    counters["worker_crashes"] = int(stats.get("service.worker_crashes", 0))
    counters["worker_respawns"] = int(stats.get("service.worker_respawns", 0))
    return {
        "seed": seed,
        "profile": profile,
        "num_workers": num_workers,
        "kill_schedule": kill_at,
        **oracle.verdict(
            healthy, 0 < counters["kills"] <= counters["worker_respawns"]
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.chaos",
        description="SIGKILL shard workers of the multi-process server under "
        "a seeded workload; every acked write must survive.",
    )
    parser.add_argument(
        "--num-workers", type=int, default=3, help="shard worker processes"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="fast"
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    workers = run_worker_chaos(
        seed=args.seed, profile=args.profile, num_workers=args.num_workers,
    )
    c = workers["counters"]
    print(
        f"workers seed={workers['seed']} profile={workers['profile']} "
        f"n={workers['num_workers']} ops={c['ops']} acked={c['acked']} "
        f"kills={c['kills']} respawns={c['worker_respawns']} "
        f"verified={workers['keys_verified']}/{workers['keys_tracked']} "
        f"{'ok' if workers['ok'] else 'FAIL'}"
    )
    for miss in workers["mismatches"]:
        print(f"        mismatch: {json.dumps(miss)}")
    report = {"workers": workers}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"report written to {args.out}")
    return 0 if workers["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
