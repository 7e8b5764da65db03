"""repro-stats rendering: pure-function tests plus one live round-trip."""

from __future__ import annotations

from repro.env.mem import MemEnv
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig
from repro.tools.stats_cli import render

SAMPLE = {
    "committed_sequence": 120,
    "server": {
        "service.requests.put": 100,
        "service.queue_depth": 2,
        "service.latency_s.p99": 0.004,
    },
    "engine": {
        "db.block_cache.hits": 40,
        "db.block_cache.misses": 10,
        "db.last_sequence": 120,
    },
    "crypto": {
        "crypto.bytes": 1_048_576,
        "crypto.context_inits": 12,
        "crypto.bulk_s.sum": 0.25,
        "crypto.init_s.sum": 0.01,
        "crypto.bulk_s.p99": 0.001,
    },
    "replication": {
        "replica-1": {"position": 110, "lag": 10},
    },
}


def test_render_sections_and_values():
    out = render(SAMPLE)
    assert "committed_sequence: 120" in out
    for header in ("== server ==", "== engine ==", "== crypto ==",
                   "== cipher attribution ==", "== replication =="):
        assert header in out
    assert "service.requests.put" in out
    assert "replica-1: position=110 lag=10" in out
    assert "1,048,576 bytes ciphered" in out
    # No rates without a previous snapshot.
    assert "/s)" not in out


def test_render_rates_from_previous_snapshot():
    current = {
        "server": {"service.requests.put": 300},
        "crypto": {
            "crypto.bytes": 3_145_728,
            "crypto.context_inits": 12,
            "crypto.bulk_s.sum": 0.75,
            "crypto.init_s.sum": 0.01,
        },
    }
    out = render(current, previous=SAMPLE, interval=2.0)
    # (300 - 100) / 2s = 100/s on the request counter.
    assert "(100.0/s)" in out
    # (3 MiB - 1 MiB) / 2s = 1 MiB/s of cipher throughput.
    assert "1.0 MiB/s" in out
    assert "cipher busy" in out


def test_render_skips_rates_for_gauges_and_percentiles():
    previous = {
        "server": {"service.queue_depth": 0, "service.latency_s.p99": 0.001},
        "replication": {},
    }
    current = {
        "server": {"service.queue_depth": 5, "service.latency_s.p99": 0.1},
        "replication": {},
    }
    out = render(current, previous=previous, interval=1.0)
    assert "/s)" not in out
    assert "(no subscribed replicas)" in out


def test_render_matches_live_op_stats_shape():
    db = DB("/statscli", Options(env=MemEnv(), write_buffer_size=64 * 1024))
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            client.put(b"k", b"v")
            stats = client.stats()
    db.close()
    out = render(stats)
    assert "== server ==" in out
    assert "== engine ==" in out
    assert "committed_sequence" in out


OBS_SAMPLE = {
    "committed_sequence": 5,
    "obs": {
        "signals": {
            "stall_seconds": 1.25, "stall_count": 3, "slowdown_writes": 7,
            "write_amp": 4.2, "read_amp": 2.0, "space_amp": 1.1,
            "compaction_debt_bytes": 2048, "level_debt_bytes": [2048, 0, 0],
            "write_bytes_per_s": 10_240.0, "get_ops_per_s": 55.0,
            "scan_ops_per_s": 1.0, "kds_p95_s": 0.002, "kds_count": 9,
            "encrypt_s_per_compaction_byte": 1.5e-8,
        },
    },
}


def test_render_obs_section():
    out = render(OBS_SAMPLE)
    assert "== obs: derived signals ==" in out
    assert "write 4.2 / read 2 / space 1.1" in out
    assert "L0:2,048" in out


def test_live_op_stats_includes_obs_signals():
    db = DB("/statscli-obs", Options(env=MemEnv(), write_buffer_size=64 * 1024))
    with KVServer(db, ServiceConfig()) as server:
        with KVClient(*server.address) as client:
            client.put(b"k", b"v")
            stats = client.stats()
    db.close()
    assert "obs" in stats
    for key in ("write_amp", "read_amp", "space_amp", "stall_seconds"):
        assert key in stats["obs"]["signals"]
    assert "obs: derived signals" in render(stats)
