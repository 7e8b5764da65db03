"""Serving tier: YCSB A/B/C through the socket front-end.

Not a paper figure -- this measures the repo's own serving tier so the
network request path (framing, CRC, the executor loop, response matching)
has a tracked number next to the embedded-engine results.  Each workload
runs the figures' YCSB mix through a :class:`KVClient` against a fresh
SHIELD engine behind an in-process :class:`KVServer`.  A run of 1,000 ops
lasts about 0.1 s, so one run moves with the host: the three workloads take
turns through :func:`conftest.interleaved_medians` and each row is its
workload's median run of ``_REPEATS``.  The encrypted server must stay
within an order of magnitude of useful throughput and the read-only
workload (C) must not be slower than the write-heavy one (A) by more than
harness noise.
"""

from __future__ import annotations

from functools import partial

from conftest import emit, interleaved_medians, run_once

from paper import YCSBSpec, format_table, load_ycsb, run_ycsb
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig
from repro.shield import ShieldOptions, open_shield_db

_WORKLOADS = ("A", "B", "C")
_SPEC = YCSBSpec(record_count=1200, operation_count=1000, value_size=256)
_REPEATS = 5


def _run(workload: str):
    """One run: a fresh engine and server, loaded, then the workload."""
    db = open_shield_db(
        "/svc-bench",
        ShieldOptions(kds=InMemoryKDS(), server_id="bench-primary"),
        Options(write_buffer_size=256 * 1024, slowdown_delay_s=0.0),
    )
    server = KVServer(db, ServiceConfig()).start()
    client = KVClient(*server.address)
    try:
        load_ycsb(client, _SPEC)
        result = run_ycsb(client, workload, _SPEC)
        result.extra["busy_retries"] = client.busy_retries
        return result
    finally:
        client.close()
        server.stop()
        db.close()


def _experiment():
    return interleaved_medians(
        {f"socket-ycsb-{w}": partial(_run, w) for w in _WORKLOADS}, _REPEATS
    )


def test_service_ycsb_over_socket(benchmark):
    results = run_once(benchmark, _experiment)
    table = format_table(
        f"service: YCSB over the socket client (median of {_REPEATS})",
        results,
        extra_columns=["read", "update", "busy_retries", "runs_ops_per_s"],
    )
    emit("service_ycsb", table)

    by_name = {result.name: result for result in results}
    for workload in _WORKLOADS:
        row = by_name[f"socket-ycsb-{workload}"]
        assert row.ops == _SPEC.operation_count
        assert row.throughput > 0
    # YCSB-C is pure zipfian reads; its median run should not lose to the
    # 50% update mix's by more than scheduling noise on the same socket path.
    assert (
        by_name["socket-ycsb-C"].throughput
        > by_name["socket-ycsb-A"].throughput * 0.5
    )
