"""Graceful degradation across engine and serving tier.

Covers the health state machine (healthy / degraded / failed), OP_HEALTH,
DEGRADED write rejections during a KDS outage (reads keep serving from
warm DEKs -- grace mode), automatic recovery once the KDS heals, replica
tolerance of KDS flaps, and the client's jittered, deadline-capped retry.
"""

import random
import socket
import time

import pytest

from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    DegradedError,
    IOError_,
    KeyManagementError,
)
from repro.keys.client import KeyClient
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB, HEALTH_DEGRADED, HEALTH_FAILED, HEALTH_HEALTHY
from repro.lsm.options import Options
from repro.service import protocol
from repro.service.client import KVClient
from repro.service.replica import Replica
from repro.service.server import KVServer, ServiceConfig
from repro.shield import ShieldOptions, open_shield_db
from tests.test_adversarial_integrity import _flip_payload_byte


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _shield_db(kds, env=None, path="/health", dek_cache=None):
    return open_shield_db(
        path,
        ShieldOptions(kds=kds, server_id="primary",
                      dek_cache=dek_cache),
        Options(env=env or MemEnv(), write_buffer_size=2048,
                slowdown_delay_s=0.0),
    )


def _config(**overrides):
    defaults = dict(health_check_interval_s=0.02, drain_timeout_s=2.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# -- DB.health() / try_recover() ---------------------------------------------


def test_db_health_transitions():
    db = DB("/h", Options(env=MemEnv()))
    assert db.health() == {"state": HEALTH_HEALTHY, "reason": "", "error": None}

    with db._mutex:
        db._bg_error = IOError_("disk blip")
    health = db.health()
    assert health["state"] == HEALTH_DEGRADED
    assert health["reason"] == "background-error"
    assert "disk blip" in health["error"]

    assert db.try_recover()
    assert db.health()["state"] == HEALTH_HEALTHY
    assert db.stats.counter("db.bg_error_recoveries").value == 1

    # Policy denials are not transient: the engine is failed, not degraded.
    with db._mutex:
        db._bg_error = AuthorizationError("revoked")
    assert db.health()["state"] == HEALTH_FAILED
    assert not db.try_recover()

    with db._mutex:
        db._bg_error = None
    db.close()
    assert db.health() == {
        "state": HEALTH_FAILED, "reason": "closed", "error": None,
    }
    assert not db.try_recover()


def test_db_health_reflects_kds_breaker():
    kds = FaultyKDS(InMemoryKDS(), seed=0)
    db = _shield_db(kds)
    assert db.health()["state"] == HEALTH_HEALTHY
    kds.go_down()
    with pytest.raises(KeyManagementError):
        db.provider.key_client.new_dek()  # trips the breaker
    health = db.health()
    assert health["state"] == HEALTH_DEGRADED
    assert health["reason"] == "kds-unavailable"
    db.close()


def test_sharded_db_health_is_worst_of():
    from repro.dist.sharding import ShardedDB

    env = MemEnv()
    cluster = ShardedDB(
        "/hc", 2, lambda i, path: DB(path, Options(env=env)),
    )
    assert cluster.health()["state"] == HEALTH_HEALTHY
    shard = cluster.shards[1]
    with shard._mutex:
        shard._bg_error = IOError_("blip")
    assert cluster.health()["state"] == HEALTH_DEGRADED
    assert cluster.try_recover()
    assert cluster.health()["state"] == HEALTH_HEALTHY
    cluster.close()
    assert cluster.health()["state"] == HEALTH_FAILED


# -- protocol ----------------------------------------------------------------


def test_health_payload_roundtrip():
    health = {"state": "degraded", "reason": "kds-unavailable", "error": "x"}
    assert protocol.decode_health(protocol.encode_health(health)) == health
    assert protocol.decode_health(b"") == {
        "state": "", "reason": "", "error": None,
    }
    assert protocol.OPCODE_NAMES[protocol.OP_HEALTH] == "health"


# -- serving tier ------------------------------------------------------------


def test_health_endpoint_and_stats():
    db = _shield_db(InMemoryKDS())
    with KVServer(db, _config()) as server:
        with KVClient(*server.address) as client:
            assert client.health()["state"] == HEALTH_HEALTHY
            assert client.stats()["health"]["state"] == HEALTH_HEALTHY
    db.close()


def test_kds_outage_degrades_writes_grace_serves_reads_then_recovers(tmp_path):
    kds = FaultyKDS(InMemoryKDS(), seed=0)
    # The secure DEK cache is what makes grace mode cover *cold* files:
    # without it only already-open readers survive an outage.
    from repro.keys.cache import SecureDEKCache

    cache = SecureDEKCache(str(tmp_path / "deks.db"), "pw", iterations=10)
    db = _shield_db(kds, dek_cache=cache)
    with KVServer(db, _config()) as server:
        client = KVClient(
            *server.address, max_retries=3, deadline_s=0.5,
            backoff_base_s=0.005, backoff_max_s=0.02,
            rng=random.Random(1),
        )
        for i in range(20):
            client.put(b"warm-%02d" % i, b"v%02d" % i)
        client.flush()
        client.put(b"warm-extra", b"vx")  # rides the already-provisioned WAL

        kds.go_down()
        # Force a flush: rotating to a new WAL needs a fresh DEK, which
        # fails (tripping the breaker) -> the engine degrades.
        with pytest.raises(KeyManagementError):
            client.flush()
        assert _wait_for(
            lambda: client.health()["state"] == HEALTH_DEGRADED
        ), client.health()

        # Reads keep serving through warm DEKs (grace mode).
        assert client.get(b"warm-03") == b"v03"
        assert client.get(b"warm-extra") == b"vx"
        # Small writes ride the already-provisioned WAL (grace), but one
        # that forces a WAL rotation needs a fresh DEK and is refused
        # with the retriable DEGRADED status.
        client.put(b"small-during-outage", b"ok")
        assert client.get(b"small-during-outage") == b"ok"
        with pytest.raises(DegradedError):
            client.put(b"new-big", b"n" * 4096)
        assert client.degraded_retries > 0
        assert server.stats.counter("service.degraded_rejections").value > 0

        # The KDS heals; the stack returns to healthy on its own.
        kds.come_up()
        assert _wait_for(
            lambda: client.health()["state"] == HEALTH_HEALTHY
        ), client.health()
        client.put(b"after-heal", b"ok")
        assert client.get(b"after-heal") == b"ok"
        # Nothing warm was lost across the outage.
        for i in range(20):
            assert client.get(b"warm-%02d" % i) == b"v%02d" % i
        client.close()
    db.close()


def test_background_error_degrades_then_auto_recovers():
    """A transient storage failure in a background flush degrades the
    server; the health monitor clears it and reschedules the flush once
    the storage heals -- no operator, no restart, no data loss."""
    env = FaultInjectionEnv(MemEnv())
    kds = InMemoryKDS()
    db = _shield_db(kds, env=env)
    with KVServer(db, _config()) as server:
        with KVClient(*server.address, max_retries=3, deadline_s=0.5,
                      backoff_base_s=0.005, backoff_max_s=0.02,
                      rng=random.Random(2)) as client:
            for i in range(30):
                client.put(b"bg-%02d" % i, b"v%02d" % i)
            env.fail_paths(lambda path: path.endswith(".sst"))
            with pytest.raises(IOError_):
                client.flush()  # the background SST write fails
            # One verdict, captured once: the health monitor is already
            # recovering, so a second probe may see a different state.
            seen = []
            assert _wait_for(
                lambda: seen.append(client.health())
                or seen[-1]["state"] == HEALTH_DEGRADED
            ), seen[-1]
            assert seen[-1]["reason"] == "background-error"

            env.heal()
            assert _wait_for(
                lambda: client.health()["state"] == HEALTH_HEALTHY
            ), client.health()
            assert server.stats.counter("service.recoveries").value >= 1
            for i in range(30):
                assert client.get(b"bg-%02d" % i) == b"v%02d" % i
    db.close()


def test_a_quarantine_does_not_hide_a_background_error_from_recovery():
    """A quarantined SST and a background error at once: the error is what
    refuses writes, so it is what ``health()`` reports -- and what the health
    loop recovers once storage heals.  A final one reads as failed."""
    env = FaultInjectionEnv(MemEnv())
    db = open_shield_db(
        "/quarantine", ShieldOptions(kds=InMemoryKDS(), scheme="shake-etm"),
        Options(env=env, slowdown_delay_s=0.0),
    )
    for i in range(200):
        db.put(b"key-%04d" % i, b"value-%04d" % i)
    db.flush()
    (sst,) = [name for name in env.list_dir("/quarantine") if name.endswith(".sst")]
    _flip_payload_byte(env, f"/quarantine/{sst}")
    with pytest.raises(AuthenticationError):
        for i in range(200):
            db.get(b"key-%04d" % i)
    assert db.health()["reason"] == "quarantined-sst"

    config = _config()
    with KVServer(db, config) as server:
        env.fail_paths(lambda path: path.endswith(".sst"))
        db.put(b"poison", b"the flush of this write fails")
        with pytest.raises(IOError_):
            db.flush()
        assert db.health()["reason"] == "background-error"
        env.heal()
        recoveries = server.stats.counter("service.recoveries")
        assert _wait_for(
            lambda: recoveries.value >= 1,
            timeout=50 * config.health_check_interval_s,
        ), db.health()
        db.put(b"after", b"accepted")
        db.flush()
        assert db.get(b"poison") == b"the flush of this write fails"

    with db._mutex:
        db._bg_error = AuthorizationError("revoked")
    assert db.health()["state"] == HEALTH_FAILED
    db.close()


def test_health_loop_outlives_a_failing_tick():
    """One probe that raises must not end auto-recovery for good."""
    db = DB("/flaky-probe", Options(env=MemEnv()))

    class _FlakyProbeDB:
        failures_left = 3

        def health(self):
            if self.failures_left:
                self.failures_left -= 1
                raise RuntimeError("probe blew up")
            return db.health()

        def __getattr__(self, name):
            return getattr(db, name)

    with KVServer(_FlakyProbeDB(), _config()) as server:
        errors = server.stats.counter("service.health_check_errors")
        assert _wait_for(lambda: errors.value == 3)
        with db._mutex:
            db._bg_error = IOError_("disk blip")
        assert _wait_for(
            lambda: server.stats.counter("service.recoveries").value >= 1
        )
        assert db.health()["state"] == HEALTH_HEALTHY
    db.close()


def test_non_degraded_write_errors_still_surface_as_errors():
    """DEGRADED is only for a degraded engine; an ordinary write failure
    on a healthy one keeps its original error type."""
    env = FaultInjectionEnv(MemEnv())
    db = DB("/plain", Options(env=env, write_buffer_size=2048))
    with KVServer(db, _config(auto_recover=False)) as server:
        with KVClient(*server.address, max_retries=1) as client:
            client.put(b"k", b"v")
            env.fail_paths(lambda path: path.endswith(".log"))
            with pytest.raises(IOError_):
                client.put(b"k2", b"v2")
            env.heal()
    db.close()


def test_replica_survives_kds_flap_and_resumes():
    kds = FaultyKDS(InMemoryKDS(), seed=0)
    db = _shield_db(kds)
    with KVServer(db, _config()) as server:
        replica = Replica(
            *server.address, server_id="replica-1",
            key_client=KeyClient.resilient(kds, "replica-1"),
            reconnect_backoff_s=0.01,
        )
        replica.start()
        for i in range(10):
            db.put(b"f-%02d" % i, b"v1")
        assert replica.wait_until_caught_up(db.committed_sequence())

        # The KDS drops; the stream DEK cannot be provisioned, so every
        # resubscription is refused -- but refusals are retriable, the
        # tailer keeps its resume position and keeps trying.
        kds.go_down()
        replica.simulate_crash()
        assert _wait_for(lambda: replica.kds_flaps >= 1, timeout=10.0)
        assert not replica.join(timeout=0.2)  # loop still alive
        for i in range(10, 20):
            db.put(b"f-%02d" % i, b"v1")

        kds.come_up()
        assert replica.wait_until_caught_up(
            db.committed_sequence(), timeout=15.0
        )
        for i in range(20):
            assert replica.get(b"f-%02d" % i) == b"v1"
        assert replica.last_applied == db.committed_sequence()
        replica.stop()
    db.close()


# -- client retry behaviour --------------------------------------------------


def test_client_backoff_is_full_jitter():
    client = KVClient("127.0.0.1", 1, backoff_base_s=0.01,
                      backoff_max_s=0.5, rng=random.Random(11))
    for attempt in range(10):
        ceiling = min(0.01 * (2 ** attempt), 0.5)
        for _ in range(20):
            assert 0.0 <= client._backoff_s(attempt) <= ceiling


def test_client_backoff_is_deterministic_per_rng_seed():
    def draws(seed):
        client = KVClient("127.0.0.1", 1, rng=random.Random(seed))
        return [client._backoff_s(a) for a in range(8)]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)


def test_client_deadline_caps_total_retry_time():
    # A port nothing listens on: every attempt fails fast with OSError.
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # closed again: connection refused

    client = KVClient(
        "127.0.0.1", port, max_retries=1000, timeout_s=0.2,
        backoff_base_s=0.2, backoff_max_s=0.2, deadline_s=0.5,
        rng=random.Random(0),
    )
    from repro.errors import ServiceError

    started = time.monotonic()
    with pytest.raises(ServiceError):
        client.ping()
    elapsed = time.monotonic() - started
    assert elapsed < 5.0  # deadline-capped, nowhere near 1000 retries
    client.close()
