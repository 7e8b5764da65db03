"""Chaos for the adaptive controller: outages freeze it, never confuse it.

Three promises pinned here:

1. A KDS outage degrades the engine; the controller *freezes* (no policy
   flips on outage-polluted signals) and thaws after the KDS heals.
2. Worker kills under adaptive serving stay retriable; the
   respawned worker's controller starts fresh and the merged OP_STATS obs
   section keeps flowing.
3. The policy-flip frequency cap holds even under a pathological
   alternating workload (regression pin for controller thrash).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.env.mem import MemEnv
from repro.errors import KDSUnavailableError
from repro.keys.cache import SecureDEKCache
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs.controller import ControllerConfig
from repro.service.client import KVClient
from repro.service.server import ServiceConfig
from repro.service.workers import MultiProcessKVServer
from repro.shield import ShieldOptions, open_shield_db


def _fast_config(**overrides) -> ControllerConfig:
    config = ControllerConfig(
        tick_interval_s=0.0,
        confirm_ticks=1,
        dwell_s=0.0,
        max_flips_per_min=1000,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_controller_freezes_through_kds_outage_and_thaws(tmp_path):
    kds = FaultyKDS(InMemoryKDS(), seed=0)
    # Grace mode needs the secure DEK cache: reads of existing files keep
    # working through the outage, which is what keeps the loop ticking.
    cache = SecureDEKCache(str(tmp_path / "cache.db"), "pw", iterations=10)
    shield = ShieldOptions(kds=kds, dek_cache=cache)
    base = Options(
        env=MemEnv(),
        adaptive_compaction=True,
        adaptive_config=_fast_config(),
        write_buffer_size=8 * 1024,
        level0_file_num_compaction_trigger=2,
    )
    db = open_shield_db("/chaos-kds", shield, base)
    try:
        for i in range(1500):
            db.put(b"key-%05d" % i, b"v" * 64)
        db.flush()
        flips_before = db.stats.counter("controller.policy_changes").value

        # Outage: trip the breaker so health() reports degraded.
        kds.go_down()
        key_client = db.provider.key_client
        for __ in range(10):
            if not key_client.available():
                break
            with pytest.raises(KDSUnavailableError):
                key_client.new_dek()
        assert not key_client.available()
        assert db.health()["state"] == "degraded"

        # Reads still work (grace mode) and tick the control loop; every
        # tick during the outage must freeze, not flip.
        for i in range(300):
            assert db.get(b"key-%05d" % (i % 1500)) == b"v" * 64
        assert db.stats.counter("controller.frozen_ticks").value >= 1
        assert (
            db.stats.counter("controller.policy_changes").value == flips_before
        )
        state = db.controller_state()
        assert state["reason"].startswith("frozen:")

        # Heal: the engine climbs back and the controller resumes.
        kds.come_up()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                key_client.new_dek()
                break
            except KDSUnavailableError:
                time.sleep(0.2)  # wait out the breaker's reset window
        else:
            pytest.fail("breaker never closed after the KDS healed")
        assert db.try_recover()
        for i in range(1500, 2500):
            db.put(b"key-%05d" % i, b"v" * 64)
        db.compact_range()
        assert db.health()["state"] == "healthy"
        frozen = db.stats.counter("controller.frozen_ticks").value
        for i in range(200):
            db.get(b"key-%05d" % (i % 2500))
        # Post-heal ticks are live again (frozen count stops growing).
        assert db.stats.counter("controller.frozen_ticks").value == frozen
    finally:
        db.close()


def test_flip_frequency_cap_under_alternating_workload():
    """Regression pin: a thrash-inducing workload cannot force more than
    max_flips_per_min policy changes inside the sliding minute."""
    options = Options(
        env=MemEnv(),
        adaptive_compaction=True,
        adaptive_config=_fast_config(max_flips_per_min=2),
        write_buffer_size=4 * 1024,
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=16 * 1024,
    )
    with DB("/chaos-flip", options) as db:
        sequence = 0
        for __ in range(6):  # alternate write bursts and read storms
            for __ in range(800):
                db.put(b"key-%06d" % sequence, b"v" * 64)
                sequence += 1
            db.flush()
            for i in range(200):
                db.get(b"key-%06d" % (i % sequence))
        db.wait_for_compaction()
        flips = db.stats.counter("controller.policy_changes").value
        assert flips <= 2, f"controller thrashed: {flips} flips"
        assert db.stats.counter("controller.ticks").value >= flips


def _adaptive_factory():
    def make_shard(index, path):
        return DB(
            path,
            Options(
                env=MemEnv(),
                adaptive_compaction=True,
                adaptive_config=_fast_config(),
                write_buffer_size=16 * 1024,
            ),
        )

    return make_shard


def test_worker_kill_with_adaptive_serving(tmp_path):
    base = str(tmp_path / "mp-adaptive")
    server = MultiProcessKVServer(
        base, 2, _adaptive_factory(), ServiceConfig(port=0, drain_timeout_s=2.0)
    )
    server.start()
    try:
        with KVClient(
            *server.address, max_retries=12, backoff_base_s=0.005,
            backoff_max_s=0.1, timeout_s=5.0,
        ) as client:
            for i in range(400):
                client.put(b"w-%04d" % i, b"v" * 32)
            stats = client.stats()
            assert "obs" in stats
            assert "signals" in stats["obs"]
            assert stats["obs"]["controller"]["shards"] == 2

            victim = server.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            client.put(b"after-kill", b"ok")
            assert client.get(b"after-kill") == b"ok"

            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(server.worker_pids):
                    break
                time.sleep(0.02)
            assert all(server.worker_pids)

            # The respawned worker contributes a fresh controller; the
            # merged obs section still covers every shard.
            stats = client.stats()
            assert stats["obs"]["controller"]["shards"] == 2
            assert stats["health"]["state"] if "health" in stats else True
    finally:
        server.stop()
