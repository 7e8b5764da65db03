"""Adaptive compaction controller (repro.obs.controller) and its DB loop."""

from __future__ import annotations

import pytest

from repro.env.mem import MemEnv
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs.controller import AdaptiveController, ControllerConfig
from repro.obs.trace import TRACER, RingBufferSink


def _signals(**overrides) -> dict:
    base = {
        "stall_seconds": 0.0,
        "slowdown_writes": 0,
        "level_debt_bytes": [0] * 7,
        "write_bytes_per_s": 0.0,
        "get_ops_per_s": 0.0,
        "scan_ops_per_s": 0.0,
        "read_amp": 0.0,
        "encrypt_s_per_compaction_byte": 0.0,
    }
    base.update(overrides)
    return base


def _fast_config(**overrides) -> ControllerConfig:
    config = ControllerConfig(
        tick_interval_s=0.0, confirm_ticks=1, dwell_s=0.0, max_flips_per_min=1000
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def test_refuses_fifo():
    with pytest.raises(ValueError):
        AdaptiveController("fifo")


def test_write_pressure_selects_universal():
    ctrl = AdaptiveController("leveled", config=_fast_config())
    decision = ctrl.decide(_signals(stall_seconds=1.0), "healthy", 0.0)
    assert decision.policy == "universal"
    assert decision.policy_changed
    assert decision.reason == "write-pressure"


def test_scan_heavy_selects_leveled():
    ctrl = AdaptiveController("universal", config=_fast_config())
    decision = ctrl.decide(
        _signals(get_ops_per_s=400.0, scan_ops_per_s=100.0), "healthy", 0.0
    )
    assert decision.policy == "leveled"
    assert decision.reason == "read-heavy"


def test_high_read_amp_point_reads_select_leveled():
    ctrl = AdaptiveController("universal", config=_fast_config())
    decision = ctrl.decide(
        _signals(get_ops_per_s=500.0, read_amp=9.0), "healthy", 0.0
    )
    assert decision.policy == "leveled"
    assert decision.reason == "read-heavy"


def test_skewed_point_reads_keep_current_policy():
    # Point lookups early-exit at the newest run holding the key; without
    # scan traffic or high probe counts there is nothing for a leveled
    # restructure to pay back.
    ctrl = AdaptiveController("universal", config=_fast_config())
    decision = ctrl.decide(
        _signals(get_ops_per_s=500.0, read_amp=1.2), "healthy", 0.0
    )
    assert decision.policy == "universal"
    assert not decision.policy_changed
    assert decision.reason == "read-heavy:point"


def test_mixed_with_scans_selects_lazy_leveled():
    ctrl = AdaptiveController("leveled", config=_fast_config())
    decision = ctrl.decide(
        _signals(stall_seconds=1.0, get_ops_per_s=400.0, scan_ops_per_s=100.0),
        "healthy",
        0.0,
    )
    assert decision.policy == "lazy-leveled"
    assert decision.reason == "mixed"


def test_mixed_point_reads_select_universal():
    ctrl = AdaptiveController("leveled", config=_fast_config())
    decision = ctrl.decide(
        _signals(stall_seconds=1.0, get_ops_per_s=500.0), "healthy", 0.0
    )
    assert decision.policy == "universal"
    assert decision.reason == "mixed:point-reads"


def test_idle_keeps_current_policy():
    ctrl = AdaptiveController("lazy-leveled", config=_fast_config())
    decision = ctrl.decide(_signals(), "healthy", 0.0)
    assert decision.policy == "lazy-leveled"
    assert not decision.policy_changed
    assert decision.reason == "idle"


def test_confirmation_ticks_gate_the_flip():
    ctrl = AdaptiveController("leveled", config=_fast_config(confirm_ticks=3))
    pressure = _signals(stall_seconds=1.0)
    assert not ctrl.decide(pressure, "healthy", 0.0).policy_changed
    assert not ctrl.decide(pressure, "healthy", 1.0).policy_changed
    assert ctrl.decide(pressure, "healthy", 2.0).policy_changed
    # A contradicting tick in between restarts the count.
    ctrl = AdaptiveController("leveled", config=_fast_config(confirm_ticks=2))
    assert not ctrl.decide(pressure, "healthy", 0.0).policy_changed
    assert not ctrl.decide(_signals(), "healthy", 1.0).policy_changed
    assert not ctrl.decide(pressure, "healthy", 2.0).policy_changed
    assert ctrl.decide(pressure, "healthy", 3.0).policy_changed


def test_dwell_time_blocks_rapid_flips():
    ctrl = AdaptiveController("leveled", config=_fast_config(dwell_s=10.0))
    assert ctrl.decide(_signals(stall_seconds=1.0), "healthy", 0.0).policy_changed
    # Scan pressure immediately after: must wait out the dwell.
    reads = _signals(get_ops_per_s=400.0, scan_ops_per_s=100.0)
    assert not ctrl.decide(reads, "healthy", 1.0).policy_changed
    assert not ctrl.decide(reads, "healthy", 9.0).policy_changed
    assert ctrl.decide(reads, "healthy", 10.5).policy_changed
    assert ctrl.policy == "leveled"


def test_flip_frequency_cap():
    """Regression pin: even with zero dwell the per-minute cap holds."""
    ctrl = AdaptiveController(
        "leveled", config=_fast_config(max_flips_per_min=2)
    )
    write = _signals(stall_seconds=1.0)
    read = _signals(get_ops_per_s=500.0)
    flips = 0
    now = 0.0
    for i in range(50):
        decision = ctrl.decide(write if i % 2 == 0 else read, "healthy", now)
        flips += decision.policy_changed
        now += 0.5  # 50 alternating ticks inside 25 s
    assert flips <= 2
    assert ctrl.policy_changes == flips


def test_freeze_while_unhealthy():
    ctrl = AdaptiveController("leveled", config=_fast_config(confirm_ticks=2))
    pressure = _signals(stall_seconds=1.0)
    ctrl.decide(pressure, "healthy", 0.0)  # evidence accumulating
    decision = ctrl.decide(pressure, "degraded", 1.0)
    assert decision.frozen
    assert not decision.policy_changed
    assert decision.policy == "leveled"
    assert ctrl.frozen_ticks == 1
    # The freeze reset pending evidence: healing restarts confirmation.
    assert not ctrl.decide(pressure, "healthy", 2.0).policy_changed
    assert ctrl.decide(pressure, "healthy", 3.0).policy_changed


def test_offload_only_when_link_cheaper():
    config = _fast_config(offload_margin=1.5)
    ctrl = AdaptiveController(
        "leveled",
        offload_available=True,
        link_s_per_byte=1e-6,
        config=config,
    )
    assert ctrl.offload  # starts on: matches the static engine
    # Local crypto much cheaper than the link -> pull the work back.
    decision = ctrl.decide(
        _signals(encrypt_s_per_compaction_byte=1e-8), "healthy", 0.0
    )
    assert decision.offload_changed and not ctrl.offload
    # Inside the hysteresis band: no change either way.
    decision = ctrl.decide(
        _signals(encrypt_s_per_compaction_byte=1.2e-6), "healthy", 1.0
    )
    assert not decision.offload_changed and not ctrl.offload
    # Local clearly more expensive -> ship it.
    decision = ctrl.decide(
        _signals(encrypt_s_per_compaction_byte=1e-5), "healthy", 2.0
    )
    assert decision.offload_changed and ctrl.offload


def test_offload_never_without_service():
    ctrl = AdaptiveController("leveled", config=_fast_config())
    decision = ctrl.decide(
        _signals(encrypt_s_per_compaction_byte=1.0), "healthy", 0.0
    )
    assert not decision.offload and not decision.offload_changed


# ----------------------------------------------------------------------
# The DB-hosted control loop.
# ----------------------------------------------------------------------


def _adaptive_options(**overrides) -> Options:
    return Options(
        env=MemEnv(),
        adaptive_compaction=True,
        adaptive_config=_fast_config(),
        write_buffer_size=4 * 1024,
        level0_file_num_compaction_trigger=2,
        max_bytes_for_level_base=16 * 1024,
        **overrides,
    )


def test_db_control_loop_reacts_to_write_pressure():
    with DB("/ctl", _adaptive_options()) as db:
        assert db.controller_state() is not None
        for i in range(6000):
            db.put(b"key-%06d" % i, b"v" * 64)
        db.compact_range()
        state = db.controller_state()
        # The fill produced L0 debt ticks: the controller moved off
        # the static leveled default at least once.
        assert db.stats.counter("controller.ticks").value >= 1
        assert state["policy"] in ("universal", "lazy-leveled", "leveled")
        assert db.stats.counter("controller.policy_changes").value >= 1
        for i in range(0, 6000, 131):
            assert db.get(b"key-%06d" % i) == b"v" * 64


def test_policy_change_span_parents_under_bg_job():
    sink = RingBufferSink(capacity=200_000)
    TRACER.configure(enabled=True, sinks=[sink], sample_rate=1.0)
    try:
        with DB("/ctl-trace", _adaptive_options()) as db:
            for i in range(6000):
                db.put(b"key-%06d" % i, b"v" * 64)
            db.compact_range()
    finally:
        TRACER.disable()
    spans = {span.span_id: span for span in sink.spans()}
    changes = [s for s in sink.spans() if s.name == "compaction.policy_change"]
    assert changes, "no policy-change span emitted"
    for change in changes:
        assert change.parent_id is not None
        parent = spans.get(change.parent_id)
        # The parent finished after its child: it must be a bg-job span
        # (or a read span for read-path ticks).
        if parent is not None:
            assert parent.name in ("db.flush_job", "db.compaction")


def test_adaptive_off_means_no_controller():
    options = Options(env=MemEnv())
    with DB("/static", options) as db:
        policy = db.policy
        assert policy.controller is None and db.controller_state() is None
        pair = (policy.picker, policy.offload)
        db.put(b"k", b"v")
        db.flush()  # a flush ticks the policy; nothing adapts
        assert db.stats.counter("controller.ticks").value == 0
        assert (policy.picker, policy.offload) == pair


def test_fifo_never_gets_a_controller():
    options = Options(
        env=MemEnv(), compaction_style="fifo", adaptive_compaction=True
    )
    with DB("/fifo", options) as db:
        assert db.controller_state() is None
