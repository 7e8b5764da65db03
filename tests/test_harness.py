"""Tests for the benchmark harness's measurement helpers."""

import time

from paper import RunResult, ascii_bar_chart, format_table, relative_overhead, timed


class _SleepyDB:
    def get(self, key):
        time.sleep(0.001)

    def put(self, key, value):
        pass


def test_measure_ops_counts_and_times():
    ops = [("get", b"k", None)] * 5 + [("put", b"k", b"v")] * 2
    result = timed(_SleepyDB(), "demo", iter(ops))
    assert result.ops == 7
    assert result.extra == {"get": 5, "put": 2}
    assert result.elapsed_s >= 0.005
    assert len(result.latencies_s) == 7
    assert result.throughput > 0
    assert result.p99_us >= 1000


def test_measure_ops_without_latencies():
    result = timed(_SleepyDB(), "demo", iter([]))
    assert result.ops == 0
    assert result.latencies_s == []
    assert result.p99_us == 0.0
    assert result.throughput == 0.0


def test_run_result_percentiles():
    result = RunResult(
        name="r", ops=100, elapsed_s=1.0,
        latencies_s=[i / 1e6 for i in range(1, 101)],
    )
    assert 49 < result.p50_us < 52
    assert 98 < result.p99_us <= 100
    assert result.mean_us > 0


def test_relative_overhead_zero_baseline():
    zero = RunResult(name="z", ops=0, elapsed_s=0.0)
    other = RunResult(name="o", ops=10, elapsed_s=1.0)
    assert relative_overhead(zero, other) == 0.0


def test_ascii_bar_chart():
    rows = [
        RunResult(name="fast", ops=1000, elapsed_s=1.0),
        RunResult(name="slow", ops=250, elapsed_s=1.0),
    ]
    chart = ascii_bar_chart("demo", rows, width=40)
    lines = chart.splitlines()
    assert "demo" in lines[0]
    fast_bar = lines[1].count("#")
    slow_bar = lines[2].count("#")
    assert fast_bar == 40          # peak fills the width
    assert 8 <= slow_bar <= 12     # ~25% of peak
    assert "1,000" in lines[1]
    assert ascii_bar_chart("empty", []).endswith("(no data)")


def test_format_table_without_baseline():
    rows = [RunResult(name="only", ops=10, elapsed_s=0.5)]
    table = format_table("t", rows)
    assert "overhead" not in table
    assert "only" in table
