"""Tests for the sharded deployment and the shared secure DEK cache."""

import heapq
import itertools
import os

import pytest
from hypothesis import given, strategies as st

from repro.dist.sharding import (
    ShardedDB,
    merge_scan_results,
    merge_stats,
    shard_for_key,
    split_batch,
)
from repro.env.mem import MemEnv
from repro.errors import InvalidArgumentError
from repro.keys.cache import SecureDEKCache
from repro.keys.kds import SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.write_batch import WriteBatch
from repro.service import protocol
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import VirtualClock


def _plain_sharded(num_shards=4):
    env = MemEnv()

    def make_shard(index, path):
        return DB(path, Options(env=env, write_buffer_size=4 * 1024))

    return ShardedDB("/cluster", num_shards, make_shard)


def test_shard_routing_stable_and_in_range():
    for key in (b"a", b"hello", b"key-123", b"\x00\xff"):
        index = shard_for_key(key, 8)
        assert 0 <= index < 8
        assert shard_for_key(key, 8) == index  # deterministic


def test_shard_routing_spreads_keys():
    counts = [0] * 8
    for i in range(4000):
        counts[shard_for_key(b"key-%05d" % i, 8)] += 1
    assert min(counts) > 4000 / 8 * 0.5  # no pathological skew


def test_put_get_delete_across_shards():
    with _plain_sharded() as cluster:
        for i in range(500):
            cluster.put(b"key-%04d" % i, b"v-%04d" % i)
        for i in range(0, 500, 29):
            assert cluster.get(b"key-%04d" % i) == b"v-%04d" % i
        cluster.delete(b"key-0058")
        assert cluster.get(b"key-0058") is None


def test_batch_split_by_shard():
    with _plain_sharded() as cluster:
        batch = WriteBatch()
        for i in range(50):
            batch.put(b"bk-%03d" % i, b"v")
        batch.delete(b"bk-007")
        cluster.write(batch)
        assert cluster.get(b"bk-007") is None
        assert cluster.get(b"bk-008") == b"v"


def test_cross_shard_scan_merged_sorted():
    with _plain_sharded() as cluster:
        for i in range(200):
            cluster.put(b"key-%04d" % i, b"%d" % i)
        results = cluster.scan(b"key-0050", b"key-0060")
        assert [k for k, __ in results] == [b"key-%04d" % i for i in range(50, 60)]
        limited = cluster.scan(limit=7)
        assert len(limited) == 7
        keys = [k for k, __ in limited]
        assert keys == sorted(keys)


def test_invalid_shard_count():
    with pytest.raises(ValueError):
        ShardedDB("/c", 0, lambda i, p: None)


def test_stats_and_sequence_aggregate_across_shards():
    with _plain_sharded(num_shards=2) as cluster:
        for i in range(100):
            cluster.put(b"key-%04d" % i, b"v")
        snapshot = cluster.stats_snapshot()
        assert snapshot["db.writes"] == 100
        # The gauges DB.stats_snapshot adds on top of the counters sum too.
        assert snapshot["db.last_sequence"] == 100
        assert snapshot["integrity.quarantined_files"] == 0
        assert cluster.committed_sequence() == 100
        assert cluster.committed_sequence() == sum(
            shard.committed_sequence() for shard in cluster.shards
        )


def test_split_batch_routes_every_entry_and_keeps_order():
    batch = WriteBatch()
    for i in range(20):
        batch.put(b"k-%02d" % i, b"v-%02d" % i)
    batch.delete(b"k-03")
    batch.put(b"k-03", b"again")

    parts = split_batch(batch, lambda key: shard_for_key(key, 3))
    assert set(parts) == {shard_for_key(b"k-%02d" % i, 3) for i in range(20)}
    for index, part in parts.items():
        entries = list(part.items())
        assert all(shard_for_key(key, 3) == index for __, key, __v in entries)
        # Same relative order as the source batch.
        assert entries == [
            entry for entry in batch.items()
            if shard_for_key(entry[1], 3) == index
        ]
    assert sum(len(part) for part in parts.values()) == len(batch)
    assert split_batch(WriteBatch(), lambda key: 0) == {}
    # The route's return value is the key, whatever it is.
    assert set(split_batch(batch, lambda key: "only")) == {"only"}


def test_merge_stats_merges_an_op_stats_snapshot_section_by_section():
    def snapshot(writes, state, write_amp):
        return {
            "engine": {"db.writes": writes, "db.flag": True},
            "integrity": {"integrity.auth_ok_total": writes},
            "committed_sequence": writes,
            "health": {"state": state, "reason": "", "error": None},
            "replication": {"replica-1": {"position": writes, "lag": 0}},
            "obs": {"signals": {"write_amp": write_amp, "flush_bytes": 10}},
        }

    merged = merge_stats([
        snapshot(3, "healthy", 2.0),
        snapshot(4, "degraded", 5.0),
    ])
    assert merged["engine"] == {"db.writes": 7, "db.flag": True}
    assert merged["integrity"] == {"integrity.auth_ok_total": 7}
    assert merged["committed_sequence"] == 7
    assert merged["health"]["state"] == "degraded"        # worst-of
    assert merged["replication"] == {}     # per-engine sequence spaces
    assert merged["obs"] == {
        "signals": {"write_amp": 5.0, "flush_bytes": 20}
    }

    # A section only some shards report is still merged; none -> absent.
    partial = merge_stats([{"keyclient": {"keyclient.provisions": 2}}, {}])
    assert partial["keyclient"] == {"keyclient.provisions": 2}
    assert "engine" not in partial and "obs" not in partial
    assert merge_stats([]) == {
        "committed_sequence": 0,
        "health": {"state": "healthy", "reason": "", "error": None},
        "replication": {},
    }


def test_merge_stats_applies_each_rule_at_its_own_place_only():
    """A counter that happens to be called ``health`` or ``signals`` is a
    counter, and per-endpoint detail is never merged positionally."""
    def endpoint(name):
        return {
            "engine": {"health": 2, "signals": 3, "replication": 4},
            "workers": {"0": {"committed_sequence": 7}},
            "endpoints": {name: {"committed_sequence": 7}},
        }

    merged = merge_stats([endpoint("a"), endpoint("b")])
    assert merged["engine"] == {"health": 4, "signals": 6, "replication": 8}
    assert "workers" not in merged and "endpoints" not in merged


def test_colocated_shards_share_secure_cache(tmp_path):
    """ZippyDB-style: many SHIELD instances on one server share one
    passkey-protected DEK cache, so restarts hit the KDS zero times."""
    clock = VirtualClock()
    kds = SimulatedKDS(clock=clock, request_latency_s=0.001)
    kds.authorize_server("server-1")
    env = MemEnv()
    cache = SecureDEKCache(str(tmp_path / "shared-cache"), "pw", iterations=10)

    def make_shard(index, path):
        shield = ShieldOptions(
            kds=kds, server_id="server-1", dek_cache=cache, wal_buffer_size=0
        )
        return open_shield_db(
            path, shield, Options(env=env, write_buffer_size=4 * 1024)
        )

    cluster = ShardedDB("/cluster", 3, make_shard)
    for i in range(600):
        cluster.put(b"key-%04d" % i, b"v" * 40)
    cluster.flush()
    cluster.close()
    assert len(cache) > 0

    # Restart every shard: all DEKs come from the shared local cache.
    slept_before = clock.total_slept
    cluster = ShardedDB("/cluster", 3, make_shard)
    try:
        for i in range(0, 600, 61):
            assert cluster.get(b"key-%04d" % i) == b"v" * 40
        providers = [shard.options.crypto_provider for shard in cluster.shards]
        fetches = sum(
            provider.key_client.stats.counter("keyclient.kds_fetches").value
            for provider in providers
        )
        assert fetches == 0
        hits = sum(
            provider.key_client.stats.counter("keyclient.cache_hits").value
            for provider in providers
        )
        assert hits > 0
    finally:
        cluster.close()


# -- lifecycle ---------------------------------------------------------------


def test_close_is_idempotent_and_guards_operations():
    cluster = _plain_sharded(2)
    cluster.put(b"k", b"v")
    cluster.close()
    cluster.close()  # second close is a no-op, not an error
    with pytest.raises(Exception):
        cluster.put(b"k2", b"v2")
    with pytest.raises(Exception):
        cluster.get(b"k")
    batch = WriteBatch()
    batch.put(b"k3", b"v3")
    with pytest.raises(Exception):
        cluster.write(batch)


def test_context_manager_closes_all_shards():
    with _plain_sharded(3) as cluster:
        cluster.put(b"k", b"v")
        shards = list(cluster.shards)
    for shard in shards:
        with pytest.raises(Exception):
            shard.put(b"x", b"y")  # every underlying engine is closed


def test_partial_construction_closes_built_shards():
    env = MemEnv()
    built = []

    def make_shard(index, path):
        if index == 2:
            raise RuntimeError("shard 2 refuses to open")
        db = DB(path, Options(env=env, write_buffer_size=4 * 1024))
        built.append(db)
        return db

    with pytest.raises(RuntimeError, match="shard 2"):
        ShardedDB("/partial", 4, make_shard)
    assert len(built) == 2
    for db in built:
        with pytest.raises(Exception):
            db.put(b"k", b"v")  # already-built shards were closed, not leaked


def test_close_propagates_first_shard_error_but_closes_all():
    cluster = _plain_sharded(3)

    class _ExplodingClose:
        def __init__(self, db):
            self.db = db
            self.close_calls = 0

        def close(self):
            self.close_calls += 1
            raise RuntimeError("close failed")

        def __getattr__(self, name):
            return getattr(self.db, name)

    exploding = _ExplodingClose(cluster.shards[0])
    real = cluster.shards[1:]
    cluster.shards = [exploding] + real
    with pytest.raises(RuntimeError, match="close failed"):
        cluster.close()
    assert exploding.close_calls == 1
    for shard in real:
        with pytest.raises(Exception):
            shard.put(b"x", b"y")  # closed despite the first shard's error
    exploding.db.close()


# -- cross-shard scan merge (regression) -------------------------------------


def test_cross_shard_scan_globally_ordered_with_limit():
    """Regression: the limit must apply to the *merged* stream, not per
    shard -- a per-shard cut used to return shard-0's keys first."""
    with _plain_sharded(4) as cluster:
        keys = [b"scan-%04d" % (i * 13 % 200) for i in range(200)]
        for key in keys:
            cluster.put(key, b"v:" + key)
        want = sorted(set(keys))
        got = cluster.scan(b"", None, limit=25)
        assert [k for k, _ in got] == want[:25]
        assert all(v == b"v:" + k for k, v in got)
        # No limit: the full key space, globally ordered.
        assert [k for k, _ in cluster.scan(b"", None)] == want
        # A bounded range with a limit straddling several shards.
        got = cluster.scan(b"scan-0050", b"scan-0150", limit=10)
        in_range = [k for k in want if b"scan-0050" <= k < b"scan-0150"]
        assert [k for k, _ in got] == in_range[:10]


def test_merge_scan_results_applies_limit_after_merging():
    shard_a = [(b"a", b"1"), (b"d", b"4")]
    shard_b = [(b"b", b"2"), (b"e", b"5")]
    shard_c = [(b"c", b"3")]
    merged = merge_scan_results([shard_a, shard_b, shard_c], limit=3)
    assert merged == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]
    assert merge_scan_results([shard_a, shard_b, shard_c], limit=None) == [
        (b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4"), (b"e", b"5")
    ]
    assert merge_scan_results([], limit=5) == []


def _eager_merge_scan_results(per_shard, limit):
    """The merge as it was before the gathers took their parts lazily:
    every part decoded up front, the limit applied after the merge."""
    merged = heapq.merge(*per_shard)
    if limit is not None:
        return list(itertools.islice(merged, limit))
    return list(merged)


@st.composite
def _disjoint_parts(draw):
    """Up to four sorted parts over one key set, no key in two parts; any
    part may be empty."""
    keys = sorted(draw(st.sets(st.binary(max_size=6), max_size=40)))
    owners = draw(st.lists(
        st.integers(0, 3), min_size=len(keys), max_size=len(keys)
    ))
    parts = [[] for __ in range(draw(st.integers(1, 4)))]
    for key, owner in zip(keys, owners):
        parts[owner % len(parts)].append((key, b"v:" + key))
    return parts


@given(parts=_disjoint_parts(), limit=st.sampled_from([None, 0, 1, 3, 100]))
def test_the_lazy_gather_equals_the_eager_merge(parts, limit):
    # 100 is past any union drawn here.
    payloads = [protocol.encode_pairs(part) for part in parts]
    expected = _eager_merge_scan_results(parts, limit)
    decoded = []

    def counted(payload):
        for pair in protocol.iter_pairs(payload):
            decoded.append(pair)
            yield pair

    assert merge_scan_results([counted(p) for p in payloads], limit) == expected
    # What the merge decoded: its answer plus, at most, one pair ahead in
    # each part.
    if limit is not None:
        assert len(decoded) <= limit + len(parts)


def test_a_scan_limit_means_the_same_in_a_sharded_db():
    with _plain_sharded(3) as cluster:
        for index in range(20):
            cluster.put(b"k%02d" % index, b"v")
        assert cluster.scan(b"", None, limit=0) == []
        assert len(cluster.scan(b"", None, limit=5)) == 5
        for db in [cluster, cluster.shards[0]]:
            with pytest.raises(InvalidArgumentError):
                db.scan(b"", None, limit=-1)


# -- cross-process routing determinism ---------------------------------------


def test_shard_for_key_is_pythonhashseed_independent():
    """The wire contract: client and server processes, started with
    different hash seeds, must agree on every key's shard."""
    import subprocess
    import sys

    program = (
        "from repro.dist.sharding import shard_for_key\n"
        "print(','.join(str(shard_for_key(b'key-%04d' % i, 5))"
        " for i in range(200)))\n"
    )
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.strip())
    assert outputs[0] == outputs[1] == outputs[2]
    # And the in-process interpreter agrees with the subprocesses.
    local = ",".join(
        str(shard_for_key(b"key-%04d" % i, 5)) for i in range(200)
    )
    assert local == outputs[0]
