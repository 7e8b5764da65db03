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


def _key(index: int) -> bytes:
    return b"k%06d" % index


def _value(index: int, round_: int) -> bytes:
    return (b"v%06d.%d." % (index, round_)) + b"x" * 40


# ---------------------------------------------------------------------------
# Crash matrix
# ---------------------------------------------------------------------------


def _engine_options(env, adaptive: bool = False) -> Options:
    options = Options(
        env=env,
        write_buffer_size=2048,
        block_size=512,
        level0_file_num_compaction_trigger=2,
        wal_sync_writes=True,
        max_background_jobs=1,
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
    shield = ShieldOptions(
        kds=kds,
        server_id="crash-matrix",
        wal_buffer_size=256,
        trusted_counter=counter,
    )

    # Expected state.  Phase 2 only writes *fresh* keys (and re-deletes
    # already-dead ones), so a write acked after the callback copied this
    # state but before it forked the env can only make the fork a superset
    # of the expectation -- never contradict it.
    state: dict[bytes, bytes] = {}
    deleted: set[bytes] = set()

    def acked_put(db, key: bytes, value: bytes) -> None:
        db.put(key, value)
        state[key] = value
        deleted.discard(key)

    def acked_delete(db, key: bytes) -> None:
        db.delete(key)
        deleted.add(key)
        state.pop(key, None)

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
            expected = dict(state)
            dead = set(deleted)
            env_fork = mem.fork(durable_only=True)
            counter_fork = counter.fork()
            kds_fork = kds.fork()
            capture["snap"] = (expected, dead, env_fork, kds_fork, counter_fork)
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
            try:
                db.simulate_crash()
            except Exception:  # noqa: BLE001 - already dead is fine
                pass

    if "snap" not in capture:
        result["error"] = result["error"] or "sync point never fired"
        return result
    result["captured"] = True

    expected, dead, env_fork, kds_fork, counter_fork = capture["snap"]
    result.update(
        _verify_recovery(env_fork, kds_fork, expected, dead, counter_fork)
    )
    return result


def _verify_recovery(
    env_fork, kds_fork, expected, dead, counter_fork=None
) -> dict:
    """Open the crash-instant snapshot and check every invariant."""
    shield = ShieldOptions(
        kds=kds_fork,
        server_id="crash-recovery",
        wal_buffer_size=256,
        trusted_counter=counter_fork,
    )
    lost = []
    resurrected = []
    recovery_error = None
    try:
        db = open_shield_db(DB_PATH, shield, _engine_options(env_fork))
        try:
            for key, value in sorted(expected.items()):
                if db.get(key) != value:
                    lost.append(key.decode())
            for key in sorted(dead):
                if db.get(key) is not None:
                    resurrected.append(key.decode())
        finally:
            db.close()
    except Exception as exc:  # noqa: BLE001 - a failed recovery is the finding
        recovery_error = repr(exc)

    audit = audit_directory(env_fork, DB_PATH)
    unreadable = [row["name"] for row in audit["rows"] if "error" in row]
    unknown_deks = sorted(
        {
            row["dek_id"]
            for row in audit["rows"]
            if "error" not in row
            and row["scheme"] != "PLAINTEXT"
            and not kds_fork.knows(row["dek_id"])
        }
    )
    referenced = {
        row["dek_id"]
        for row in audit["rows"]
        if "error" not in row and row["scheme"] != "PLAINTEXT"
    }
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
        "expected_keys": len(expected),
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

#: In-doubt tombstone marker (None doubles as "key may be absent").
_TOMBSTONE = None


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


def run_chaos(seed: int = 0, profile: str = "fast") -> dict:
    """YCSB-style soak under a seeded fault schedule; returns the report."""
    spec = PROFILES[profile]
    rng = random.Random(seed)
    schedule = _make_schedule(random.Random(seed ^ 0xFA01), spec)

    env = FaultInjectionEnv(MemEnv(), seed=seed ^ 0xE9)
    kds = FaultyKDS(InMemoryKDS(), seed=seed ^ 0xD5)

    def shield_options() -> ShieldOptions:
        return ShieldOptions(
            kds=kds,
            server_id=f"chaos-{seed}",
            wal_buffer_size=256,
            resilient=True,
        )

    def engine_options() -> Options:
        return Options(
            env=env,
            write_buffer_size=4096,
            block_size=512,
            level0_file_num_compaction_trigger=2,
            wal_sync_writes=True,
            slowdown_delay_s=0.0,
        )

    def service_config() -> ServiceConfig:
        return ServiceConfig(
            port=0,
            num_workers=2,
            max_queue_depth=32,
            health_check_interval_s=0.05,
            drain_timeout_s=2.0,
            socket_timeout_s=5.0,
        )

    def new_client(server: KVServer) -> KVClient:
        host, port = server.address
        return KVClient(
            host,
            port,
            pool_size=2,
            timeout_s=5.0,
            max_retries=8,
            backoff_base_s=0.005,
            backoff_max_s=0.05,
            deadline_s=2.0,
            rng=random.Random(seed ^ 0xC11E),
        )

    db = open_shield_db(DB_PATH, shield_options(), engine_options())
    server = KVServer(db, service_config()).start()
    client = new_client(server)

    # Expected state: last *acknowledged* outcome per key, plus the set of
    # in-doubt outcomes (ops that failed after retries -- the server may or
    # may not have applied them; either result is legal at read-back).
    acked: dict[bytes, bytes | None] = {}
    indoubt: dict[bytes, set] = {}
    counters = {
        "ops": 0,
        "acked": 0,
        "failed": 0,
        "crashes": 0,
        "forced_restarts": 0,
        "degraded_seen": 0,
        "health_failed_seen": 0,
    }
    client_retry_totals = {"retries": 0, "busy": 0, "degraded": 0}

    def retire_client(old: KVClient) -> None:
        client_retry_totals["retries"] += old.retries
        client_retry_totals["busy"] += old.busy_retries
        client_retry_totals["degraded"] += old.degraded_retries
        try:
            old.close()
        except Exception:  # noqa: BLE001
            pass

    def restart(reason: str) -> None:
        nonlocal db, server, client
        # A restart lands on healed hardware: the interesting recovery is
        # from the *crash image*, not from still-firing faults.
        env.heal()
        kds.heal()
        retire_client(client)
        try:
            server.stop()
        except Exception:  # noqa: BLE001
            pass
        try:
            db.simulate_crash()
        except Exception:  # noqa: BLE001
            pass
        env.crash_system()
        db = open_shield_db(DB_PATH, shield_options(), engine_options())
        server = KVServer(db, service_config()).start()
        client = new_client(server)
        schedule.setdefault("restarts", []).append(
            {"op": counters["ops"], "reason": reason}
        )

    window_starts = {w["start"]: w for w in schedule["windows"]}
    window_ends = {w["end"]: w for w in schedule["windows"]}
    crash_at = set(schedule["crashes"])
    keyspace = spec["keys"]
    mismatches: list[dict] = []

    try:
        for op_index in range(spec["ops"]):
            counters["ops"] += 1
            if op_index in window_starts:
                _apply_window(window_starts[op_index]["kind"], env, kds, rng)
            if op_index in window_ends:
                env.heal()
                kds.heal()
            if op_index in crash_at:
                counters["crashes"] += 1
                restart("scheduled crash")

            key = _key(rng.randrange(keyspace))
            roll = rng.random()
            try:
                if roll < 0.60:
                    value = _value(op_index, 2)
                    client.put(key, value)
                    acked[key] = value
                    indoubt.pop(key, None)
                elif roll < 0.85:
                    got = client.get(key)
                    allowed = {acked.get(key, _TOMBSTONE)}
                    allowed |= indoubt.get(key, set())
                    if got not in allowed:
                        mismatches.append(
                            {
                                "op": op_index,
                                "key": key.decode(),
                                "got": None if got is None else got.decode(),
                                "phase": "inline-read",
                            }
                        )
                elif roll < 0.95:
                    client.delete(key)
                    acked[key] = _TOMBSTONE
                    indoubt.pop(key, None)
                else:
                    client.scan(_key(0), _key(keyspace), limit=20)
            except (ReproError, OSError):
                counters["failed"] += 1
                if roll < 0.60:
                    indoubt.setdefault(key, set()).add(value)
                elif 0.85 <= roll < 0.95:
                    indoubt.setdefault(key, set()).add(_TOMBSTONE)
            else:
                counters["acked"] += 1

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
        healthy = False
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            try:
                if client.health()["state"] == "healthy":
                    healthy = True
                    break
            except (ReproError, OSError):
                pass
            time.sleep(0.05)
        if not healthy:
            restart("never healed")
            healthy = True  # recovery from a clean image must serve

        # Read-back: every key ever touched must hold an allowed outcome.
        verified = 0
        for key in sorted(set(acked) | set(indoubt)):
            allowed = {acked.get(key, _TOMBSTONE)}
            allowed |= indoubt.get(key, set())
            try:
                got = client.get(key)
            except (ReproError, OSError) as exc:
                mismatches.append(
                    {
                        "key": key.decode(),
                        "got": f"error: {exc!r}",
                        "phase": "read-back",
                    }
                )
                continue
            verified += 1
            if got not in allowed:
                mismatches.append(
                    {
                        "key": key.decode(),
                        "got": None if got is None else got.decode(),
                        "phase": "read-back",
                    }
                )
    finally:
        retire_client(client)
        try:
            server.stop()
        except Exception:  # noqa: BLE001
            pass
        try:
            db.close()
        except Exception:  # noqa: BLE001
            pass

    counters.update(
        {
            "injected_env_failures": env.injected_failures,
            "injected_read_failures": env.injected_read_failures,
            "injected_bit_flips": env.injected_bit_flips,
            "injected_kds_failures": kds.injected_failures,
            "client_retries": client_retry_totals["retries"],
            "client_busy_retries": client_retry_totals["busy"],
            "client_degraded_retries": client_retry_totals["degraded"],
        }
    )
    return {
        "seed": seed,
        "profile": profile,
        "schedule": schedule,
        "counters": counters,
        "keys_tracked": len(set(acked) | set(indoubt)),
        "keys_verified": verified,
        "mismatches": mismatches,
        "healthy_at_end": healthy,
        "ok": healthy and not mismatches and counters["acked"] > 0,
    }


# ---------------------------------------------------------------------------
# Worker-kill chaos (shard-per-core server)
# ---------------------------------------------------------------------------


class ForwardingKVClient(KVClient):
    """A client from before ``OP_TOPOLOGY``: it never learns the workers'
    endpoints, so every op takes the front-end's forwarding route."""

    def _learn_shards(self):
        return None


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
        return DB(path, Options(
            env=env,
            write_buffer_size=4096,
            block_size=512,
            level0_file_num_compaction_trigger=2,
            wal_sync_writes=True,
            slowdown_delay_s=0.0,
        ))

    config = ServiceConfig(
        port=0,
        max_queue_depth=32,
        health_check_interval_s=0.05,
        drain_timeout_s=2.0,
    )
    server = MultiProcessKVServer(
        f"{base}/db", num_workers, make_shard, config
    ).start()
    host, port = server.address
    client = WORKER_CHAOS_ROUTES[route](
        host,
        port,
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
    kill_schedule = set(kill_at)

    acked: dict[bytes, bytes | None] = {}
    indoubt: dict[bytes, set] = {}
    counters = {"ops": 0, "acked": 0, "failed": 0, "kills": 0}
    keyspace = spec["keys"]
    mismatches: list[dict] = []

    try:
        for op_index in range(ops):
            counters["ops"] += 1
            if op_index in kill_schedule:
                victims = [pid for pid in server.worker_pids if pid]
                if victims:
                    counters["kills"] += 1
                    try:
                        os.kill(rng.choice(victims), signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            key = _key(rng.randrange(keyspace))
            roll = rng.random()
            try:
                if roll < 0.65:
                    value = _value(op_index, 3)
                    client.put(key, value)
                    acked[key] = value
                    indoubt.pop(key, None)
                elif roll < 0.85:
                    got = client.get(key)
                    allowed = {acked.get(key, _TOMBSTONE)}
                    allowed |= indoubt.get(key, set())
                    if got not in allowed:
                        mismatches.append({
                            "op": op_index,
                            "key": key.decode(),
                            "got": None if got is None else got.decode(),
                            "phase": "inline-read",
                        })
                elif roll < 0.95:
                    client.delete(key)
                    acked[key] = _TOMBSTONE
                    indoubt.pop(key, None)
                else:
                    scanned = client.scan(_key(0), _key(keyspace), limit=20)
                    keys = [k for k, __ in scanned]
                    if keys != sorted(keys):
                        mismatches.append({
                            "op": op_index,
                            "phase": "scan-order",
                            "got": "unordered scatter-gather scan",
                        })
            except (ReproError, OSError):
                counters["failed"] += 1
                if roll < 0.65:
                    indoubt.setdefault(key, set()).add(value)
                elif 0.85 <= roll < 0.95:
                    indoubt.setdefault(key, set()).add(_TOMBSTONE)
            else:
                counters["acked"] += 1

        # Every worker must be back (respawned) and healthy.
        healthy = False
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            try:
                if (
                    client.health()["state"] == "healthy"
                    and all(server.worker_pids)
                ):
                    healthy = True
                    break
            except (ReproError, OSError):
                pass
            time.sleep(0.05)

        verified = 0
        for key in sorted(set(acked) | set(indoubt)):
            allowed = {acked.get(key, _TOMBSTONE)}
            allowed |= indoubt.get(key, set())
            try:
                got = client.get(key)
            except (ReproError, OSError) as exc:
                mismatches.append({
                    "key": key.decode(),
                    "got": f"error: {exc!r}",
                    "phase": "read-back",
                })
                continue
            verified += 1
            if got not in allowed:
                mismatches.append({
                    "key": key.decode(),
                    "got": None if got is None else got.decode(),
                    "phase": "read-back",
                })
        stats = server.stats.snapshot()
    finally:
        try:
            client.close()
        except Exception:  # noqa: BLE001
            pass
        try:
            server.stop()
        except Exception:  # noqa: BLE001
            pass
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
        "counters": counters,
        "keys_tracked": len(set(acked) | set(indoubt)),
        "keys_verified": verified,
        "mismatches": mismatches,
        "healthy_at_end": healthy,
        "ok": (
            healthy
            and not mismatches
            and counters["acked"] > 0
            and counters["kills"] > 0
            and counters["worker_respawns"] >= counters["kills"]
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
