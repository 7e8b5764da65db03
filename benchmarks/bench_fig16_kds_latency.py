"""Figure 16: sensitivity to KDS request latency (offloaded compaction).

Paper shape: sweeping the KDS delay (SSToolkit averages ~2750us/request)
moves SHIELD throughput by at most ~10% and p99 by ~6% -- DEK requests are
per-*file*, not per-operation, so even a slow KDS barely shows.
"""

from __future__ import annotations

from conftest import bench_options, emit, run_once

from paper import WorkloadSpec, fill_random, format_table
from repro.dist.deployment import build_ds_deployment
from repro.keys.kds import SimulatedKDS
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import ScaledClock

_KDS_LATENCIES_US = [0, 2750, 10_000, 50_000]
_SPEC = WorkloadSpec(num_ops=4000, keyspace=4000)
_LATENCY_SCALE = 0.02


def _experiment():
    results = []
    for latency_us in _KDS_LATENCIES_US:
        clock = ScaledClock(_LATENCY_SCALE)
        deployment = build_ds_deployment(clock=clock)
        kds = SimulatedKDS(clock=clock, request_latency_s=latency_us * 1e-6)
        kds.authorize_server("compute-1")
        kds.authorize_server("compaction-1")
        shield = ShieldOptions(kds=kds, server_id="compute-1")
        engine = deployment.db_options(bench_options())
        worker = ShieldOptions(kds=kds, server_id="compaction-1")
        engine.compaction_service = deployment.compaction_service(
            provider=worker.build_provider(), options=engine
        )
        db = open_shield_db("/f16", shield, engine)
        try:
            result = fill_random(db, _SPEC, name=f"kds-{latency_us}us")
            result.extra["kds_requests"] = kds.stats.counter(
                "kds.provisions"
            ).value + kds.stats.counter("kds.fetches").value
            results.append(result)
        finally:
            db.close()
    return results


def test_fig16_kds_latency(benchmark):
    results = run_once(benchmark, _experiment)
    table = format_table(
        "Figure 16: KDS latency sensitivity (SHIELD, offloaded compaction)",
        results,
        baseline_name="kds-0us",
        extra_columns=["kds_requests"],
    )
    emit("fig16_kds_latency", table)

    by_name = {result.name: result for result in results}
    # Shape: a 2750us KDS (the measured SSToolkit latency) costs little.
    fast = by_name["kds-0us"].throughput
    realistic = by_name["kds-2750us"].throughput
    assert realistic > fast * 0.5
    # KDS requests scale with files, not operations.
    assert by_name["kds-2750us"].extra["kds_requests"] < _SPEC.num_ops / 10
