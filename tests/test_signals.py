"""Derived-signal layer (repro.obs.signals)."""

from __future__ import annotations

from repro.env.mem import MemEnv
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs.costs import CostBreakdown
from repro.obs.signals import SIGNAL_KEYS, SignalEngine
from repro.util.clock import VirtualClock
from repro.util.stats import StatsRegistry


class _FakeKeyClient:
    def __init__(self):
        self.stats = StatsRegistry()


class _FakeProvider:
    def __init__(self, key_client=None):
        self.key_client = key_client


class _FakeDB:
    """Just enough surface for SignalEngine, with hand-set raw metrics."""

    def __init__(self, options=None, levels=None, key_client=None):
        self.options = options or Options()
        self.stats = StatsRegistry()
        self.clock = VirtualClock()
        self.provider = _FakeProvider(key_client)
        self._levels = levels or [0] * self.options.num_levels
        self._bg = CostBreakdown()

    def level_sizes(self):
        return list(self._levels)

    def num_files_at_level(self, level):
        return self._l0_files if level == 0 else 0

    _l0_files = 0

    def background_costs(self):
        return self._bg


def test_signal_keys_always_present():
    db = _FakeDB()
    signals = SignalEngine(db, time_fn=db.clock.now).sample()
    for key in SIGNAL_KEYS:
        assert key in signals
    assert signals["kds_p95_s"] == 0.0  # no key client


def test_write_amp_from_counter_deltas():
    db = _FakeDB()
    engine = SignalEngine(db, time_fn=db.clock.now)
    engine.sample()  # establish the baseline
    db.stats.counter("db.user_write_bytes").add(1000)
    db.stats.counter("db.flush_bytes").add(1000)
    db.stats.counter("db.compaction_bytes_written").add(3000)
    db.clock.advance(10.0)
    signals = engine.sample()
    assert signals["write_amp"] == 4.0
    assert signals["write_bytes_per_s"] == 100.0
    assert signals["interval_s"] == 10.0
    # A quiet interval reports the no-traffic defaults, not stale ratios.
    db.clock.advance(10.0)
    signals = engine.sample()
    assert signals["write_amp"] == 1.0
    assert signals["write_bytes_per_s"] == 0.0


def test_read_amp_probes_per_get():
    db = _FakeDB()
    engine = SignalEngine(db, time_fn=db.clock.now)
    engine.sample()
    db.stats.counter("db.gets").add(100)
    db.stats.counter("db.get_sst_probes").add(250)
    db.clock.advance(1.0)
    assert engine.sample()["read_amp"] == 2.5


def test_space_amp_total_over_bottommost():
    db = _FakeDB(levels=[500, 0, 1000, 0, 0, 0, 0])
    engine = SignalEngine(db, time_fn=db.clock.now)
    assert engine.sample()["space_amp"] == 1.5
    db._levels = [0] * 7
    assert engine.sample()["space_amp"] == 1.0  # empty tree


def test_level_debt():
    options = Options(
        max_bytes_for_level_base=1000,
        fanout=10,
        level0_file_num_compaction_trigger=4,
    )
    db = _FakeDB(options=options, levels=[800, 1500, 5000, 0, 0, 0, 0])
    engine = SignalEngine(db, time_fn=db.clock.now)
    signals = engine.sample()
    # L0 under its file trigger: no debt even with bytes present.
    assert signals["level_debt_bytes"][0] == 0
    assert signals["level_debt_bytes"][1] == 500     # over the 1000 target
    assert signals["level_debt_bytes"][2] == 0       # under the 10000 target
    assert signals["compaction_debt_bytes"] == 500
    db._l0_files = 4
    signals = engine.sample()
    assert signals["level_debt_bytes"][0] == 800     # all of L0 must move
    assert signals["compaction_debt_bytes"] == 1300


def test_kds_p95_from_keyclient_window():
    key_client = _FakeKeyClient()
    hist = key_client.stats.histogram("keyclient.kds_s")
    for __ in range(100):
        hist.record(0.002)
    db = _FakeDB(key_client=key_client)
    signals = SignalEngine(db, time_fn=db.clock.now).sample()
    assert signals["kds_count"] == 100
    assert 0.0018 < signals["kds_p95_s"] < 0.0025


def test_encrypt_seconds_per_compaction_byte():
    db = _FakeDB()
    engine = SignalEngine(db, time_fn=db.clock.now)
    engine.sample()
    db._bg.add("compaction", "encrypt", 2.0, nbytes=100)
    db._bg.add("compaction", "encrypt_init", 1.0)
    db._bg.add("flush", "encrypt", 99.0)  # flush work must not leak in
    db.stats.counter("db.compaction_bytes_written").add(1000)
    db.clock.advance(1.0)
    assert engine.sample()["encrypt_s_per_compaction_byte"] == 3.0 / 1000
    # Delta semantics: no new work, no new signal.
    db.clock.advance(1.0)
    assert engine.sample()["encrypt_s_per_compaction_byte"] == 0.0


def test_stall_seconds_windowed():
    db = _FakeDB()
    db.stats.histogram("db.stall_seconds").record(0.5)
    db.stats.histogram("db.stall_seconds").record(0.25)
    signals = SignalEngine(db, time_fn=db.clock.now).sample()
    assert signals["stall_seconds"] == 0.75
    assert signals["stall_count"] == 2


def test_live_db_exposes_signal_engine():
    options = Options(env=MemEnv(), write_buffer_size=4 * 1024)
    with DB("/sig", options) as db:
        engine = db.signals
        engine.sample()
        for i in range(2000):
            db.put(b"key-%05d" % i, b"v" * 64)
        db.compact_range()
        for i in range(0, 2000, 50):
            db.get(b"key-%05d" % i)
        signals = engine.sample()
        # User bytes were really persisted (amp >= 1) and gets probed SSTs.
        assert signals["write_amp"] >= 1.0
        assert signals["read_amp"] > 0.0
        assert signals["space_amp"] >= 1.0
        assert db.stats.counter("db.user_write_bytes").value > 2000 * 64
        # The sample advanced the delta baseline: nothing read since.
        assert engine.sample()["get_ops_per_s"] == 0.0


# ----------------------------------------------------------------------
# Cross-shard merges.
# ----------------------------------------------------------------------

from repro.obs.signals import merge_signals  # noqa: E402


def test_merge_signals_sums_volumes_takes_worst_amps():
    a = {
        "stall_seconds": 1.0, "write_amp": 2.0, "read_amp": 1.0,
        "write_bytes_per_s": 100.0, "level_debt_bytes": [10, 0],
        "kds_p95_s": 0.001,
    }
    b = {
        "stall_seconds": 0.5, "write_amp": 6.0, "read_amp": 3.0,
        "write_bytes_per_s": 50.0, "level_debt_bytes": [5, 7, 9],
        "kds_p95_s": 0.004,
    }
    merged = merge_signals([a, b])
    assert merged["stall_seconds"] == 1.5          # summed
    assert merged["write_bytes_per_s"] == 150.0    # summed
    assert merged["write_amp"] == 6.0              # worst shard
    assert merged["kds_p95_s"] == 0.004            # worst shard
    assert merged["level_debt_bytes"] == [15, 7, 9]  # element-wise
    assert merge_signals([]) == {}
    assert merge_signals([{}, a])["write_amp"] == 2.0


def test_sharded_db_obs_dict_merges_shards():
    from repro.dist.sharding import ShardedDB

    def make_shard(index, path):
        return DB(path, Options(env=MemEnv(), write_buffer_size=8 * 1024))

    with ShardedDB("/obs-shards", 3, make_shard) as sharded:
        for i in range(600):
            sharded.put(b"key-%05d" % i, b"v" * 64)
        sharded.flush()
        for i in range(0, 600, 7):
            sharded.get(b"key-%05d" % i)
        obs = sharded.obs_dict()
        signals = obs["signals"]
        assert signals["write_bytes_per_s"] >= 0.0
        # Work is additive across the three shards' engines.
        total = sum(
            shard.stats.counter("db.user_write_bytes").value
            for shard in sharded.shards
        )
        assert total > 600 * 64
        assert set(obs) == {"signals"}
