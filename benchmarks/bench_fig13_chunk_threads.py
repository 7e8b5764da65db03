"""Figure 13: compaction time vs. encryption chunk size and threads.

Paper shape: chunked multi-threaded encryption starts slightly behind at
tiny chunks (per-chunk dispatch overhead) and improves steadily with chunk
size; at 2MB chunks threaded SHIELD compaction approaches (or beats)
unencrypted compaction time.

Note: CPython's hashlib releases the GIL only inside ``update()`` of
>= 2 KiB; the SHAKE keystream is a squeeze (``digest(n)``), which holds it,
so chunk encryption does not overlap across threads here (measured: two
threads at 0.76-0.93x of sequential; DESIGN.md fidelity notes).
"""

from __future__ import annotations

import time

from conftest import bench_options, emit, run_once

from repro.bench.workloads import WorkloadSpec, preload
from repro.bench.systems import make_system

_CHUNK_SIZES = [4 * 1024, 64 * 1024, 512 * 1024, 2 * 1024 * 1024]
_SPEC = WorkloadSpec(num_ops=0, keyspace=9000, value_size=200)


def _compaction_time(system: str, chunk_size: int, threads: int) -> float:
    options = bench_options(
        write_buffer_size=256 * 1024,
        encryption_chunk_size=chunk_size,
        encryption_threads=threads,
        level0_file_num_compaction_trigger=100,  # keep compaction manual
        level0_stop_writes_trigger=200,
    )
    db = make_system(system, base_options=options)
    try:
        # Load without compaction, then time one forced major compaction.
        from repro.bench.valuegen import ValueGenerator
        from repro.bench.keygen import format_key

        values = ValueGenerator(_SPEC.value_size, seed=1)
        for index in range(_SPEC.keyspace):
            db.put(format_key(index), values.next_value())
        db.flush()
        db.wait_for_compaction()
        start = time.perf_counter()
        db.force_compaction()
        return time.perf_counter() - start
    finally:
        db.close()


def _experiment():
    rows = []
    baseline_time = _compaction_time("baseline", 64 * 1024, 1)
    rows.append(("baseline", "-", 1, baseline_time))
    for chunk in _CHUNK_SIZES:
        for threads in (1, 4):
            elapsed = _compaction_time("shield", chunk, threads)
            rows.append(("shield", f"{chunk // 1024}KB", threads, elapsed))
    return rows


def test_fig13_chunked_threaded_compaction(benchmark):
    rows = run_once(benchmark, _experiment)
    lines = [
        "== Figure 13: compaction time vs encryption chunk size/threads ==",
        f"{'system':10s} {'chunk':>8s} {'threads':>8s} {'seconds':>9s}",
    ]
    for system, chunk, threads, elapsed in rows:
        lines.append(f"{system:10s} {chunk:>8s} {threads:8d} {elapsed:9.3f}")
    emit("fig13_chunk_threads", "\n".join(lines))

    baseline_time = rows[0][3]
    shield_times = {(chunk, threads): t for __, chunk, threads, t in rows[1:]}
    # Shape: large-chunk encryption is not slower than tiny-chunk.
    assert shield_times[("2048KB", 1)] <= shield_times[("4KB", 1)] * 1.5
    # Encrypted compaction stays within a sane factor of unencrypted.
    assert min(shield_times.values()) < baseline_time * 3
