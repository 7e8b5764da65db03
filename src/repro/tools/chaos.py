"""Chaos harness: crash-point matrix and seeded fault-schedule soak.

Two drivers, both seeded so a red run replays exactly:

**Crash matrix** (:func:`run_crash_matrix`) enumerates every named sync
point declared in the engine (``SYNC.declared()`` -- flush, compaction,
MANIFEST swap, WAL rotation, DEK retirement) and, for each one, kills the
database at exactly that point.  The kill is a snapshot, not a thread
murder: the sync-point callback forks the env's *durable* bytes
(``MemEnv.fork(durable_only=True)``) and the KDS registry
(``InMemoryKDS.fork()``) at the instant of the crash, then raises to
abort the operation.  Recovery runs against the forks and must satisfy
the standing invariants:

- no acknowledged write whose ack preceded the crash is lost,
- no deleted key is resurrected,
- ``dek_audit`` is clean (no plaintext data files, no keystream reuse),
- every file's DEK still resolves against the crash-instant KDS, and
- at most a bounded number of DEKs leak (a kill between file deletion
  and DEK retirement -- ``dek:before_retire`` -- leaks exactly the
  window the audit tooling exists to catch).

**Chaos soak** (:func:`run_chaos`) runs a YCSB-style read/update mix
through the full serving stack (KVServer + KVClient over TCP) while a
seeded schedule injects fault windows -- KDS outages, KDS error/timeout
rates, flapping, transient read errors, ciphertext bit flips, sync-only
disk faults -- and full crash/restart cycles.  Only *acknowledged*
operations join the expected state; operations that failed after retries
are tracked as in-doubt (either outcome is legal).  After the schedule
drains, everything is healed, the server must return to ``healthy``, and
every key ever touched is read back and checked against its allowed
outcomes: 100% of acked writes must be there.

Torn syncs (``arm_torn_sync``) are deliberately **excluded** from the
soak schedule: a disk that lies about durability genuinely voids the
"every acked write survives" contract the soak asserts.  Torn-sync
coverage lives in the fault-injection and repair tests instead, where
the assertion is the weaker (and correct) one -- recovery tolerates the
torn tail and ``repair_db`` converges.

**Worker-kill chaos** (:func:`run_worker_chaos`) targets the shard-per-core
server: a seeded schedule SIGKILLs random worker *processes* of a
:class:`~repro.service.workers.MultiProcessKVServer` mid-workload.  The
front-end must answer the dead worker's in-flight requests with the
retriable BUSY status (the client backs off and retries -- no terminal
errors), respawn the worker on the same shard path, and every
acknowledged write must still read back afterwards (the shards run with
synced WALs, so an ack survives a SIGKILL).  The CLI runs the schedule
once per route: with a ``KVClient`` that found the workers and talks to
them directly (a kill is a reset connection, then a reconnect that waits
in the shard's listener) and with a forwarding-only client.  The engines run *plain*
here by design: a respawned worker builds its state from the shard
directory alone, and the CLI's in-process KDS cannot outlive a killed
worker -- encrypted worker-respawn needs the shared KDS a real
deployment has (see DESIGN.md §10).

CLI::

    python -m repro.tools.chaos --mode soak --seed 7 --profile fast
    python -m repro.tools.chaos --mode matrix --out report.json
    python -m repro.tools.chaos --mode workers --seed 7
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

from repro.env.faulty import FaultInjectionEnv
from repro.env.local import LocalEnv
from repro.env.mem import MemEnv
from repro.integrity.counter import MemoryTrustedCounter
from repro.errors import ReproError
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig
from repro.service.workers import MultiProcessKVServer
from repro.shield.config import ShieldOptions, open_shield_db
from repro.tools.dek_audit import audit_directory
from repro.util.syncpoint import SYNC

DB_PATH = "/chaosdb"

#: DEKs allowed to outlive their file per crash point: the
#: ``dek:before_retire`` window itself, plus provisioning races between
#: the env fork and the KDS fork inside the capture callback.
MAX_LEAKED_DEKS = 3


class _ChaosKill(Exception):
    """Raised from a sync-point callback: 'the process dies right here'."""


#: A deleted key's expected outcome (None doubles as "key may be absent").
_TOMBSTONE = None


def _key(index: int) -> bytes:
    return b"k%06d" % index


def _value(index: int, round_: int) -> bytes:
    return (b"v%06d.%d." % (index, round_)) + b"x" * 40


# ---------------------------------------------------------------------------
# Crash matrix
# ---------------------------------------------------------------------------


def _engine_options(
    env, adaptive: bool = False, write_buffer_size: int = 2048,
    max_background_jobs: int = 1,
) -> Options:
    """A tree that flushes and compacts within a few dozen ops, with synced
    WALs (an ack must survive a kill)."""
    options = Options(
        env=env,
        write_buffer_size=write_buffer_size,
        block_size=512,
        level0_file_num_compaction_trigger=2,
        wal_sync_writes=True,
        max_background_jobs=max_background_jobs,
        slowdown_delay_s=0.0,
    )
    if adaptive:
        # The controller:* points only fire when the adaptive loop runs
        # and actually flips a policy; an aggressive config makes the
        # trial's write-heavy phase force a leveled->universal flip on
        # the first due tick.
        from repro.obs.controller import ControllerConfig

        options.adaptive_compaction = True
        options.adaptive_config = ControllerConfig(
            tick_interval_s=0.0,
            confirm_ticks=1,
            dwell_s=0.0,
            max_flips_per_min=1_000_000,
            write_rate_floor=1.0,
        )
    return options


def _shield(kds, server_id: str, **extra) -> ShieldOptions:
    return ShieldOptions(
        kds=kds, server_id=server_id, wal_buffer_size=256, **extra
    )


def _crash_point_trial(point: str, seed: int = 0) -> dict:
    """Kill the database at ``point``, recover from the crash-instant
    snapshot, and check the invariants.  Returns a result dict."""
    mem = MemEnv()
    kds = InMemoryKDS()
    # The trusted counter rides along so the crash matrix also covers the
    # SHIELD++ freshness protocol (including the counter:* torn-update
    # points); a real counter survives the crash, so it is forked at the
    # kill instant like the env and the KDS.
    counter = MemoryTrustedCounter()
    shield = _shield(kds, "crash-matrix", trusted_counter=counter)

    # Expected state: the last acked outcome per key.  Phase 2 only writes
    # *fresh* keys (and re-deletes already-dead ones), so a write acked
    # after the callback copied this state but before it forked the env can
    # only make the fork a superset of the expectation -- never contradict it.
    acked: dict[bytes, bytes | None] = {}

    def acked_put(db, key: bytes, value: bytes) -> None:
        db.put(key, value)
        acked[key] = value

    def acked_delete(db, key: bytes) -> None:
        db.delete(key)
        acked[key] = _TOMBSTONE

    # Phase 1: build a baseline tree with no chaos, close cleanly.
    # Even key indices only; phase 2 owns the odd ones.
    db = open_shield_db(DB_PATH, shield, _engine_options(mem))
    for i in range(30):
        acked_put(db, _key(2 * i), _value(2 * i, 0))
    db.flush()
    for i in range(15):
        acked_delete(db, _key(2 * i))
    for i in range(30, 60):
        acked_put(db, _key(2 * i), _value(2 * i, 0))
    db.flush()
    db.wait_for_compaction()
    db.close()

    # Arm the crash: first hit snapshots expectation + env + KDS (in that
    # order -- see the superset argument above), every hit kills.
    capture: dict = {}

    def on_hit() -> None:
        if "snap" not in capture:
            expected = dict(acked)
            env_fork = mem.fork(durable_only=True)
            counter_fork = counter.fork()
            kds_fork = kds.fork()
            capture["snap"] = (env_fork, kds_fork, expected, counter_fork)
        raise _ChaosKill(f"injected crash at {point}")

    SYNC.clear()
    SYNC.set_callback(point, on_hit)
    SYNC.enable()

    result = {
        "point": point,
        "description": SYNC.describe(point),
        "captured": False,
        "error": None,
    }
    db = None
    try:
        # Phase 2: reopen (recovery itself hits MANIFEST-swap and
        # DEK-retire points) and keep working until the point fires.
        try:
            db = open_shield_db(
                DB_PATH,
                shield,
                _engine_options(mem, adaptive=point.startswith("controller:")),
            )
        except Exception as exc:  # noqa: BLE001 - the kill lands here too
            if "snap" not in capture:
                result["error"] = f"open died before capture: {exc!r}"
                return result
        fresh = 0
        errors_in_a_row = 0
        give_up_at = time.monotonic() + 10.0
        while (
            db is not None
            and "snap" not in capture
            and errors_in_a_row < 50
            and time.monotonic() < give_up_at
        ):
            try:
                acked_put(db, _key(2 * fresh + 1), _value(2 * fresh + 1, 1))
                if fresh % 9 == 4:
                    # Tombstones that cannot change the expectation:
                    # keys that were never live, or died in phase 1.
                    acked_delete(db, _key(10_000 + fresh))
                if fresh % 11 == 7:
                    acked_delete(db, _key(2 * (fresh % 15)))
                if fresh % 35 == 20:
                    db.flush(wait=False)
                errors_in_a_row = 0
            except Exception:  # noqa: BLE001 - bg poison after the kill
                errors_in_a_row += 1
                time.sleep(0.01)
            fresh += 1
        # Background flush/compaction may still be en route to the point.
        deadline = time.monotonic() + 3.0
        while "snap" not in capture and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        SYNC.clear()
        if db is not None:
            _quietly(db.simulate_crash)

    if "snap" not in capture:
        result["error"] = result["error"] or "sync point never fired"
        return result
    result["captured"] = True

    result.update(_verify_recovery(*capture["snap"]))
    return result


def _verify_recovery(env_fork, kds_fork, expected, counter_fork) -> dict:
    """Open the crash-instant snapshot and check every invariant."""
    shield = _shield(kds_fork, "crash-recovery", trusted_counter=counter_fork)
    lost = []
    resurrected = []
    recovery_error = None
    try:
        db = open_shield_db(DB_PATH, shield, _engine_options(env_fork))
        try:
            for key, value in sorted(expected.items()):
                if db.get(key) != value:
                    wrong = resurrected if value is _TOMBSTONE else lost
                    wrong.append(key.decode())
        finally:
            db.close()
    except Exception as exc:  # noqa: BLE001 - a failed recovery is the finding
        recovery_error = repr(exc)

    audit = audit_directory(env_fork, DB_PATH)
    unreadable = [row["name"] for row in audit["rows"] if "error" in row]
    referenced = {
        row["dek_id"]
        for row in audit["rows"]
        if "error" not in row and row["scheme"] != "PLAINTEXT"
    }
    unknown_deks = sorted(
        dek_id for dek_id in referenced if not kds_fork.knows(dek_id)
    )
    leaked = max(0, kds_fork.live_dek_count() - len(referenced))

    ok = (
        recovery_error is None
        and not lost
        and not resurrected
        and not unreadable
        and not audit["plaintext_data_files"]
        and not audit["duplicate_key_nonce_pairs"]
        and not audit["shared_deks"]
        and not unknown_deks
        and leaked <= MAX_LEAKED_DEKS
    )
    return {
        "recovery_error": recovery_error,
        "expected_keys": sum(
            value is not _TOMBSTONE for value in expected.values()
        ),
        "lost": lost,
        "resurrected": resurrected,
        "unreadable_files": unreadable,
        "plaintext_data_files": [
            row["name"] for row in audit["plaintext_data_files"]
        ],
        "duplicate_key_nonce_pairs": len(audit["duplicate_key_nonce_pairs"]),
        "shared_deks": len(audit["shared_deks"]),
        "unknown_deks": unknown_deks,
        "leaked_deks": leaked,
        "ok": ok,
    }


def run_crash_matrix(seed: int = 0, points: list[str] | None = None) -> dict:
    """Crash-and-recover at every declared sync point (or ``points``)."""
    if points is None:
        points = SYNC.declared()
    results = {}
    for point in points:
        results[point] = _crash_point_trial(point, seed=seed)
    return {
        "seed": seed,
        "points": results,
        "ok": bool(results) and all(r["ok"] for r in results.values()),
    }


# ---------------------------------------------------------------------------
# Chaos soak
# ---------------------------------------------------------------------------

PROFILES = {
    "fast": {"ops": 400, "crashes": 1, "windows": 4, "keys": 200},
    "full": {"ops": 4000, "crashes": 3, "windows": 12, "keys": 400},
}

_WINDOW_KINDS = (
    "kds_outage",
    "kds_errors",
    "kds_timeouts",
    "kds_flap",
    "read_errors",
    "bit_flips",
    "sync_faults",
)

def _make_schedule(rng: random.Random, profile: dict) -> dict:
    """Seeded, non-overlapping fault windows plus crash indices."""
    ops = profile["ops"]
    windows = []
    segment = ops // profile["windows"]
    for w in range(profile["windows"]):
        lo = w * segment
        start = lo + rng.randint(2, max(3, segment // 3))
        length = rng.randint(10, max(11, segment // 2))
        end = min(start + length, lo + segment - 2)
        if end <= start:
            continue
        windows.append(
            {"kind": rng.choice(_WINDOW_KINDS), "start": start, "end": end}
        )
    crashes = sorted(
        ops * (j + 1) // (profile["crashes"] + 1) + rng.randint(-5, 5)
        for j in range(profile["crashes"])
    )
    return {"windows": windows, "crashes": crashes}


def _apply_window(kind: str, env: FaultInjectionEnv, kds: FaultyKDS,
                  rng: random.Random) -> None:
    if kind == "kds_outage":
        kds.go_down()
    elif kind == "kds_errors":
        kds.set_error_rate(0.5)
    elif kind == "kds_timeouts":
        kds.set_timeouts(0.3, after_s=0.01)
    elif kind == "kds_flap":
        kds.set_flap_schedule(3, 2)
    elif kind == "read_errors":
        env.set_read_error_rate(0.05)
    elif kind == "bit_flips":
        env.set_read_flip_rate(0.02)
    elif kind == "sync_faults":
        env.fail_syncs(after=rng.randint(0, 3))


#: The soaks' engines: the matrix's, with room for a few more ops a file.
_SOAK_ENGINE = {"write_buffer_size": 4096, "max_background_jobs": 2}


def _service_config(**extra) -> ServiceConfig:
    return ServiceConfig(
        port=0,
        max_queue_depth=32,
        health_check_interval_s=0.05,
        drain_timeout_s=2.0,
        **extra,
    )


def _soak_client(cls, address, seed: int, **retry_budget) -> KVClient:
    return cls(
        *address,
        pool_size=2,
        timeout_s=5.0,
        backoff_base_s=0.005,
        rng=random.Random(seed ^ 0xC11E),
        **retry_budget,
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
    """The soaks' op mix and what it may legally read back, whatever the
    driver does to the stack between ops.

    Expected state is the last *acknowledged* outcome per key, plus the set
    of in-doubt outcomes (ops that failed after retries -- the server may or
    may not have applied them; either result is legal at read-back).
    """

    def __init__(
        self, rng: random.Random, keyspace: int, counters: dict,
        put_share: float, round_: int,
    ):
        self.rng = rng
        self.keyspace = keyspace
        self.counters = counters  # bumps "acked" and "failed"
        self.put_share = put_share
        self.round = round_
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
            if roll < self.put_share:
                wrote = (_value(op_index, self.round),)
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


def run_chaos(seed: int = 0, profile: str = "fast") -> dict:
    """YCSB-style soak under a seeded fault schedule; returns the report."""
    spec = PROFILES[profile]
    rng = random.Random(seed)
    schedule = _make_schedule(random.Random(seed ^ 0xFA01), spec)

    env = FaultInjectionEnv(MemEnv(), seed=seed ^ 0xE9)
    kds = FaultyKDS(InMemoryKDS(), seed=seed ^ 0xD5)

    def boot() -> tuple[DB, KVServer, KVClient]:
        """Open (or recover) the store and put a server and a client on it."""
        db = open_shield_db(
            DB_PATH, _shield(kds, f"chaos-{seed}"),
            _engine_options(env, **_SOAK_ENGINE),
        )
        server = KVServer(
            db, _service_config(num_workers=2, socket_timeout_s=5.0)
        ).start()
        client = _soak_client(
            KVClient, server.address, seed,
            max_retries=8, backoff_max_s=0.05, deadline_s=2.0,
        )
        return db, server, client

    db, server, client = boot()

    counters = {
        "ops": 0,
        "acked": 0,
        "failed": 0,
        "crashes": 0,
        "forced_restarts": 0,
        "degraded_seen": 0,
        "health_failed_seen": 0,
        "client_retries": 0,
        "client_busy_retries": 0,
        "client_degraded_retries": 0,
    }
    oracle = _Oracle(rng, spec["keys"], counters, put_share=0.60, round_=2)

    def retire_client(old: KVClient) -> None:
        counters["client_retries"] += old.retries
        counters["client_busy_retries"] += old.busy_retries
        counters["client_degraded_retries"] += old.degraded_retries
        _quietly(old.close)

    def restart(reason: str) -> None:
        nonlocal db, server, client
        # A restart lands on healed hardware: the interesting recovery is
        # from the *crash image*, not from still-firing faults.
        env.heal()
        kds.heal()
        retire_client(client)
        _quietly(server.stop, db.simulate_crash)
        env.crash_system()
        db, server, client = boot()
        schedule.setdefault("restarts", []).append(
            {"op": counters["ops"], "reason": reason}
        )

    window_starts = {w["start"]: w for w in schedule["windows"]}
    window_ends = {w["end"]: w for w in schedule["windows"]}

    try:
        for op_index in range(spec["ops"]):
            counters["ops"] += 1
            if op_index in window_starts:
                _apply_window(window_starts[op_index]["kind"], env, kds, rng)
            if op_index in window_ends:
                env.heal()
                kds.heal()
            if op_index in schedule["crashes"]:
                counters["crashes"] += 1
                restart("scheduled crash")

            oracle.op(client, op_index)

            # Sample health; a hard-failed engine (e.g. a bit flip caught
            # mid-compaction) degrades to an operator restart, never a wedge.
            if op_index % 10 == 9:
                try:
                    health = client.health()
                except (ReproError, OSError):
                    health = {"state": "unknown"}
                if health["state"] == "degraded":
                    counters["degraded_seen"] += 1
                elif health["state"] == "failed":
                    counters["health_failed_seen"] += 1
                    counters["forced_restarts"] += 1
                    restart("health failed")

        # Drain: heal everything and demand the stack returns to healthy.
        env.heal()
        kds.heal()
        healthy = _wait_healthy(lambda: client.health()["state"] == "healthy")
        if not healthy:
            restart("never healed")
            healthy = True  # recovery from a clean image must serve

        oracle.read_back(client)
    finally:
        retire_client(client)
        _quietly(server.stop, db.close)

    counters.update(
        {
            "injected_env_failures": env.injected_failures,
            "injected_read_failures": env.injected_read_failures,
            "injected_bit_flips": env.injected_bit_flips,
            "injected_kds_failures": kds.injected_failures,
        }
    )
    return {
        "seed": seed,
        "profile": profile,
        "schedule": schedule,
        **oracle.verdict(healthy),
    }


# ---------------------------------------------------------------------------
# Worker-kill chaos (shard-per-core server)
# ---------------------------------------------------------------------------


class ForwardingKVClient(KVClient):
    """A client from before ``OP_TOPOLOGY``: it never learns the workers'
    endpoints, so every op takes the front-end's forwarding route."""

    def workers(self):
        return []


#: The two ways a client's ops reach a shard worker, by the client that
#: takes each: found workers and talks to them, or knows only the front-end.
WORKER_CHAOS_ROUTES = {"direct": KVClient, "forwarded": ForwardingKVClient}


def run_worker_chaos(
    seed: int = 0, profile: str = "fast", num_workers: int = 3,
    route: str = "direct",
) -> dict:
    """SIGKILL random shard workers mid-workload; verify zero acked loss.

    ``route`` picks the client (see :data:`WORKER_CHAOS_ROUTES`): a killed
    worker shows up as BUSY from the front-end on the forwarded route and
    as a reset connection on the direct one; neither may surface as an
    error or lose an acked write.

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
        return DB(path, _engine_options(env, **_SOAK_ENGINE))

    server = MultiProcessKVServer(
        f"{base}/db", num_workers, make_shard, _service_config()
    ).start()
    client = _soak_client(
        WORKER_CHAOS_ROUTES[route], server.address, seed,
        max_retries=10, backoff_max_s=0.1, deadline_s=5.0,
    )

    ops = spec["ops"]
    kill_count = max(2, spec["crashes"] * 2)
    kill_at = sorted(
        rng.sample(range(ops // 10, ops - ops // 10), kill_count)
    )

    counters = {"ops": 0, "acked": 0, "failed": 0, "kills": 0}
    oracle = _Oracle(rng, spec["keys"], counters, put_share=0.65, round_=3)

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
    counters["busy_rejections"] = int(stats.get("service.busy_rejections", 0))
    return {
        "seed": seed,
        "profile": profile,
        "route": route,
        "num_workers": num_workers,
        "kill_schedule": kill_at,
        **oracle.verdict(
            healthy, 0 < counters["kills"] <= counters["worker_respawns"]
        ),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.chaos",
        description="Crash-point matrix and seeded chaos soak for SHIELD.",
    )
    parser.add_argument(
        "--mode", choices=("soak", "matrix", "workers", "both"),
        default="soak",
        help="'workers' SIGKILLs shard workers of the multi-process "
        "server; 'both' runs soak + matrix",
    )
    parser.add_argument(
        "--num-workers", type=int, default=3,
        help="worker processes for --mode workers",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="fast"
    )
    parser.add_argument(
        "--points", nargs="*", default=None,
        help="crash-matrix sync points (default: every declared point)",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    report: dict = {}
    ok = True
    if args.mode in ("matrix", "both"):
        matrix = run_crash_matrix(seed=args.seed, points=args.points)
        report["matrix"] = matrix
        ok = ok and matrix["ok"]
        for point, row in matrix["points"].items():
            status = "ok" if row["ok"] else "FAIL"
            print(f"matrix  {point:35s} {status}")
            if not row["ok"]:
                print(f"        {json.dumps(row, default=str)}")
    for route in WORKER_CHAOS_ROUTES if args.mode == "workers" else ():
        workers = run_worker_chaos(
            seed=args.seed, profile=args.profile,
            num_workers=args.num_workers, route=route,
        )
        report[f"workers-{route}"] = workers
        ok = ok and workers["ok"]
        c = workers["counters"]
        print(
            f"workers route={route} seed={workers['seed']} "
            f"profile={workers['profile']} "
            f"n={workers['num_workers']} ops={c['ops']} acked={c['acked']} "
            f"kills={c['kills']} respawns={c['worker_respawns']} "
            f"busy={c['busy_rejections']} "
            f"verified={workers['keys_verified']}/{workers['keys_tracked']} "
            f"{'ok' if workers['ok'] else 'FAIL'}"
        )
        for miss in workers["mismatches"]:
            print(f"        mismatch: {json.dumps(miss)}")
    if args.mode in ("soak", "both"):
        soak = run_chaos(seed=args.seed, profile=args.profile)
        report["soak"] = soak
        ok = ok and soak["ok"]
        c = soak["counters"]
        print(
            f"soak    seed={soak['seed']} profile={soak['profile']} "
            f"ops={c['ops']} acked={c['acked']} failed={c['failed']} "
            f"crashes={c['crashes']} forced_restarts={c['forced_restarts']} "
            f"verified={soak['keys_verified']}/{soak['keys_tracked']} "
            f"{'ok' if soak['ok'] else 'FAIL'}"
        )
        for miss in soak["mismatches"]:
            print(f"        mismatch: {json.dumps(miss)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"report written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
