"""Figure 11: writer-thread scaling.

Paper shape: with one writer the WAL buffer is a ~22% improvement; by 8
writer threads the writer queue itself is the bottleneck and the buffer's
advantage collapses to ~1%.
"""

from __future__ import annotations

import random
import threading
import time

from conftest import bench_options, emit, run_once

from paper import RunResult, format_table, gen, make_system

_THREAD_COUNTS = [1, 2, 4, 8]
_OPS_PER_RUN = 6000


def _run_threads(system: str, num_threads: int) -> RunResult:
    db = make_system(
        system,
        base_options=bench_options(
            write_buffer_size=256 * 1024, max_background_jobs=4
        ),
    )
    ops_per_thread = _OPS_PER_RUN // num_threads
    try:
        def writer(thread_id: int):
            rng = random.Random(thread_id)
            values = gen.Values(thread_id, 100)
            for version in range(ops_per_thread):
                index = rng.randrange(20_000)
                db.put(gen.key(index), values.make(index, version))

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(num_threads)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        db.close()
    return RunResult(
        name=f"{system}@{num_threads}t",
        ops=ops_per_thread * num_threads,
        elapsed_s=elapsed,
    )


def _experiment():
    results = []
    buffer_gain = {}
    for num_threads in _THREAD_COUNTS:
        unbuffered = _run_threads("shield", num_threads)
        buffered = _run_threads("shield+walbuf", num_threads)
        baseline = _run_threads("baseline", num_threads)
        results.extend([baseline, unbuffered, buffered])
        buffer_gain[num_threads] = (
            buffered.throughput / unbuffered.throughput - 1.0
        ) * 100.0
    return results, buffer_gain


def test_fig11_writer_threads(benchmark):
    results, buffer_gain = run_once(benchmark, _experiment)
    table = format_table("Figure 11: writer-thread scaling", results)
    gains = ", ".join(f"{t}t={buffer_gain[t]:+.1f}%" for t in _THREAD_COUNTS)
    emit("fig11_writer_threads", table + f"\nWAL-buffer gain over unbuffered: {gains}")

    # Shape: the buffer helps a single writer clearly.
    assert buffer_gain[1] > 0
