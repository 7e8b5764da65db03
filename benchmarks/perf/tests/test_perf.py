"""Checks of the benchmark itself (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF))
sys.path.insert(0, PERF)

import run as perf_run  # noqa: E402

perf_run._import_product()

import compare  # noqa: E402
import gen  # noqa: E402
import spec  # noqa: E402
from oracle import Oracle  # noqa: E402


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_spec_and_limits(declared):
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in declared["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in declared["end_to_end"]
    )
    assert declared["paths"] == ["benchmarks/perf"]


def test_selfcheck_emits_every_declared_metric():
    """Every declared metric, on every workload, with its unit and finite;
    no failed op; child spans inside their parents (run.selfcheck)."""
    result = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--selfcheck"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "selfcheck: ok" in result.stdout


def test_same_seed_same_opstream_other_seed_other_opstream():
    workload = spec.WORKLOADS["served-mixed"]
    first = gen.make_stream(workload, 42, 2000, "main").sha256()
    assert first == gen.make_stream(workload, 42, 2000, "main").sha256()
    assert first != gen.make_stream(workload, 43, 2000, "main").sha256()


def test_split_gives_each_key_one_writer():
    stream = gen.make_stream(spec.WORKLOADS["served-mixed"], 7, 4000, "main")
    for part, piece in enumerate(stream.split(2)):
        put_indices = [
            i for kind, i in zip(piece.kinds, piece.indices) if kind == spec.PUT
        ]
        assert put_indices and all(i % 2 == part for i in put_indices)


def test_oracle_rejects_stale_foreign_and_damaged_values():
    values = gen.Values(1, 64)
    oracle = Oracle(values)
    oracle.ack(5, 3)
    good = values.make(5, 3)
    assert oracle.check_get(5, 3, good, exact=True)
    assert not oracle.check_get(5, 3, values.make(5, 2), exact=True)
    assert not oracle.check_get(5, 3, values.make(5, 2), exact=False)
    assert oracle.check_get(5, 3, values.make(5, 4), exact=False)
    assert not oracle.check_get(5, 3, values.make(6, 3), exact=True)
    assert not oracle.check_get(5, 3, good[:-1] + b"\x00", exact=True)
    assert not oracle.check_get(5, 3, None, exact=True)
    assert oracle.check_get(9, 0, None, exact=True)


class _CorruptingTarget:
    """Test-only: every 50th get returns another key's (valid) value."""

    def __init__(self, inner, values: gen.Values):
        self._inner = inner
        self._values = values
        self._gets = 0

    def get(self, key):
        self._gets += 1
        value = self._inner.get(key)
        if self._gets % 50 == 0:
            return self._values.make(10**9, 1)
        return value

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_corrupted_read_raises_failed_ops_frac():
    workload = spec.WORKLOADS["readrandom"]
    values = gen.Values(42, workload.value_size)
    record = perf_run.run_one(
        "readrandom", 42, 0.2, traced=False, scale=0.05,
        wrap_target=lambda target: _CorruptingTarget(target, values),
    )
    assert record["failed"] > 0
    assert record["failed_ops_frac"] > 0
    assert record["correct"] is False


def test_compare_verdicts():
    metric = spec.Metric("m", "us", "lower", 0.10)
    steady = [100.0, 101.0, 99.0]
    assert compare.judge(metric, steady, [104.0, 105.0, 103.0])[0] == "ok"
    assert compare.judge(metric, steady, [120.0, 121.0, 119.0])[0] == "regressed"
    assert compare.judge(metric, steady, [80.0, 100.0, 140.0])[0] == "unresolved"
    higher = spec.Metric("m", "1/s", "higher", 0.10)
    assert compare.judge(higher, steady, [80.0, 81.0, 79.0])[0] == "regressed"
    assert compare.judge(higher, steady, [120.0, 121.0, 119.0])[0] == "ok"
