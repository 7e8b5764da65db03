"""Tests for the figure workloads' key/value generators and op streams.

Keys, values and the zipfian are ``benchmarks/perf/gen.py``'s; the figure
library (``benchmarks/paper.py``) adds only YCSB-D's "latest" and
Mixgraph's Pareto-sized values.
"""

import random
from collections import Counter

import pytest

import paper
from paper import MixgraphSpec, WorkloadSpec, gen
from repro.env.mem import MemEnv
from repro.lsm.db import DB
from repro.lsm.options import Options


def test_format_key_fixed_width():
    assert gen.key(42) == b"k000000000000042"
    assert len(gen.key(10 ** 14)) == 16
    assert gen.key(9) < gen.key(10)  # byte order is index order


def test_sequential_keys():
    """The load phase puts every key once, in index order."""
    env = MemEnv()
    traced = paper.TracingDB(DB("/seq", Options(env=env)), env, "/seq.trace")
    paper.preload(traced, WorkloadSpec(keyspace=50))
    traced.close_trace()
    traced.close()
    ops = paper.read_trace(env, "/seq.trace")
    assert [k for __, k, ___ in ops] == [gen.key(i) for i in range(50)]


def test_uniform_keys_in_range_and_seeded():
    spec = WorkloadSpec(num_ops=50, keyspace=100)
    a = list(paper.micro_ops(spec, 0.5, seed=1))
    assert a == list(paper.micro_ops(spec, 0.5, seed=1))
    assert a != list(paper.micro_ops(spec, 0.5, seed=2))
    keys = {gen.key(i) for i in range(100)}
    assert all(key in keys for __, key, ___ in a)
    with pytest.raises(ValueError):
        list(paper.micro_ops(WorkloadSpec(keyspace=0), 0.0, seed=1))


def test_zipfian_skew():
    zipf, rng = gen.Zipfian(1000), random.Random(7)
    samples = Counter(zipf.sample(rng) for _ in range(20_000))
    assert all(0 <= s < 1000 for s in samples)
    # The hottest item gets ~13% with theta=0.99 over 1000 items...
    assert samples.most_common(1)[0][1] / 20_000 > 0.08
    # ...and the hottest decile carries the majority of requests.
    assert sum(n for __, n in samples.most_common(100)) / 20_000 > 0.5


def test_scrambled_zipfian_spreads_hot_keys():
    zipf, rng = gen.Zipfian(1000), random.Random(7)
    samples = Counter(zipf.sample(rng) for _ in range(5000))
    (first, __), (second, ___) = samples.most_common(2)
    # The two hottest ranks land far apart in the keyspace.
    assert abs(first - second) > 1


def test_latest_generator_prefers_recent():
    latest = paper.Latest(1000, seed=3)
    samples = [latest.next_index() for _ in range(10_000)]
    assert all(0 <= s < 1000 for s in samples)
    recent = sum(1 for s in samples if s >= 900) / len(samples)
    assert recent > 0.5
    assert latest.advance() == 1000
    more = [latest.next_index() for _ in range(2000)]
    assert max(more) == 1000  # the new record is now reachable


def test_value_generator_sizes():
    assert len(gen.Values(1, 100).make(0, 0)) == 100
    with pytest.raises(ValueError):
        gen.Values(1, 18)  # too small to self-describe
    spec = MixgraphSpec(value_cap=256)
    values = paper.pareto_values(spec, seed=1)
    sizes = [len(next(values)) for _ in range(2000)]
    assert all(1 <= size <= 256 for size in sizes)
    # Mixgraph's small values go below gen.Values' minimum.
    assert min(sizes) < 19 and max(sizes) > 100


def test_value_generator_deterministic():
    assert gen.Values(9, 50).make(3, 1) == gen.Values(9, 50).make(3, 1)
    a = paper.pareto_values(MixgraphSpec(), seed=9)
    b = paper.pareto_values(MixgraphSpec(), seed=9)
    assert [next(a) for _ in range(20)] == [next(b) for _ in range(20)]
