"""One seeded fast-profile chaos soak per scheme: the end-to-end
availability gate.

The CI chaos job runs more seeds; this keeps one representative schedule
(KDS faults, read faults, bit flips, a full crash/restart) in the tier-1
suite so a regression in graceful degradation fails fast and locally --
under the AEAD too, where every injected bit flip must surface as an
authentication failure or be masked by a retry, never as a wrong value.
"""

import random

import pytest

from repro.tools.chaos import PROFILES, SOAK_SCHEMES, _make_schedule, run_chaos


@pytest.mark.parametrize("scheme", SOAK_SCHEMES)
def test_fast_soak_verifies_every_acked_write(scheme):
    report = run_chaos(seed=0, profile="fast", scheme=scheme)
    assert report["ok"], report["mismatches"][:5]
    assert report["healthy_at_end"]
    assert report["mismatches"] == []
    counters = report["counters"]
    assert counters["ops"] == PROFILES["fast"]["ops"]
    assert counters["crashes"] == PROFILES["fast"]["crashes"]
    assert counters["acked"] > 0
    # Every tracked key was read back.
    assert report["keys_verified"] == report["keys_tracked"] > 0
    # The schedule really injected chaos.
    assert counters["injected_kds_failures"] + counters[
        "injected_read_failures"
    ] + counters["injected_bit_flips"] + counters["injected_env_failures"] > 0


def test_schedule_is_deterministic_per_seed():
    spec = PROFILES["fast"]
    a = _make_schedule(random.Random(9 ^ 0xFA01), spec)
    b = _make_schedule(random.Random(9 ^ 0xFA01), spec)
    assert a == b
    windows = a["windows"]
    assert windows
    # Non-overlapping and inside the op budget.
    for first, second in zip(windows, windows[1:]):
        assert first["end"] <= second["start"]
    assert all(0 <= w["start"] < w["end"] <= spec["ops"] for w in windows)
    assert len(a["crashes"]) == spec["crashes"]
