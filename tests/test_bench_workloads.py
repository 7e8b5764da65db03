"""Smoke tests for workloads, YCSB, mixgraph, systems, and the harness."""

import threading

import pytest

from paper import (
    SYSTEMS,
    YCSB_WORKLOADS,
    MixgraphSpec,
    RunResult,
    WorkloadSpec,
    YCSBSpec,
    fill_random,
    format_table,
    gen,
    load_ycsb,
    make_system,
    parse_system,
    preload,
    preload_mixgraph,
    read_random,
    read_write_mix,
    relative_overhead,
    run_mixgraph,
    run_ycsb,
)
from repro.errors import InvalidArgumentError
from repro.lsm.options import Options


def _tiny_options():
    return Options(write_buffer_size=16 * 1024, block_size=1024)


def _tiny_spec(**overrides):
    defaults = dict(num_ops=300, keyspace=300)
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


@pytest.mark.parametrize("system", SYSTEMS)
def test_fill_and_read_every_system(system):
    db = make_system(system, base_options=_tiny_options())
    with db:
        spec = _tiny_spec()
        result = fill_random(db, spec)
        assert result.ops == 300
        assert result.throughput > 0
        read = read_random(db, spec)
        assert read.ops == 300


def test_parse_system():
    spec = parse_system("shield+walbuf", wal_buffer=256)
    assert spec.design == "shield"
    assert spec.wal_buffer == 256
    assert parse_system("baseline").wal_buffer == 0
    with pytest.raises(InvalidArgumentError):
        parse_system("mysql")
    with pytest.raises(InvalidArgumentError):
        parse_system("shield+turbo")


def test_fill_seq_then_point_reads():
    db = make_system("baseline", base_options=_tiny_options())
    with db:
        preload(db, _tiny_spec())
        assert db.get(gen.key(0)) is not None
        assert db.get(gen.key(299)) is not None


def test_read_write_mix_ratio_naming():
    db = make_system("baseline", base_options=_tiny_options())
    with db:
        preload(db, _tiny_spec(num_ops=100, keyspace=100))
        result = read_write_mix(db, _tiny_spec(num_ops=100, keyspace=100,
                                               read_fraction=0.9))
        assert result.name == "rw-90r"
        assert result.ops == 100


def test_read_while_writing():
    """Measured reads racing a background writer (db_bench's
    readwhilewriting) see every preloaded key."""
    db = make_system("baseline", base_options=_tiny_options())
    with db:
        spec = _tiny_spec(num_ops=200, keyspace=200)
        preload(db, spec)
        stop, writes = threading.Event(), []

        def writer():
            while not stop.is_set() or not writes:
                fill_random(db, _tiny_spec(num_ops=20, keyspace=200, seed=len(writes)))
                writes.append(20)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            result = read_random(db, spec)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert result.ops == 200
        assert result.extra == {"get": 200}
        assert sum(writes) > 0
        assert all(db.get(gen.key(i)) is not None for i in range(200))


def test_mixgraph_runs_and_counts_ops():
    db = make_system("baseline", base_options=_tiny_options())
    with db:
        spec = MixgraphSpec(num_ops=400, keyspace=400)
        preload_mixgraph(db, spec)
        result = run_mixgraph(db, spec)
        assert sum(result.extra.values()) == 400
        # GET-heavy mix.
        assert result.extra["get"] > result.extra["put"] > 0
        assert result.extra["scan"] > 0


@pytest.mark.parametrize("workload", sorted(YCSB_WORKLOADS))
def test_ycsb_workloads_run(workload):
    db = make_system("baseline", base_options=_tiny_options())
    with db:
        spec = YCSBSpec(record_count=200, operation_count=150, value_size=128)
        load_ycsb(db, spec)
        result = run_ycsb(db, workload, spec)
        assert result.ops == 150
        assert sum(result.extra.values()) == 150
        if workload == "C":
            assert set(result.extra) == {"read"}
        if workload == "E":
            assert result.extra["scan"] > 0


def test_relative_overhead_and_table():
    base = RunResult(name="baseline", ops=1000, elapsed_s=1.0)
    slow = RunResult(name="shield", ops=1000, elapsed_s=1.25)
    assert relative_overhead(base, slow) == pytest.approx(20.0)
    table = format_table("demo", [base, slow], baseline_name="baseline")
    assert "baseline" in table
    assert "+20.0%" in table
    assert "== demo ==" in table


def test_format_table_extra_columns():
    result = RunResult(name="x", ops=10, elapsed_s=0.1, extra={"gets": 7})
    table = format_table("t", [result], extra_columns=["gets"])
    assert "gets" in table
    assert "7" in table
