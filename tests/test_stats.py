"""Tests for counters, gauges, histograms, and the stats registry."""

import contextlib
import math
import os
import signal
import sys
import threading
import time

import pytest

from repro.util.stats import (
    Counter,
    Gauge,
    Histogram,
    StatsRegistry,
    percentile_exact,
)


def test_counter():
    counter = Counter("ops")
    counter.add()
    counter.add(5)
    assert counter.value == 6


def test_histogram_empty():
    hist = Histogram()
    assert hist.percentile(99) == 0.0
    assert hist.mean == 0.0
    assert hist.count == 0


def test_histogram_single_value():
    hist = Histogram()
    hist.record(0.5)
    assert hist.count == 1
    assert abs(hist.mean - 0.5) < 1e-9
    assert hist.min == hist.max == 0.5
    # Approximate percentile must be within bucket tolerance of the value.
    assert 0.4 < hist.percentile(50) <= 0.5


def test_histogram_percentile_accuracy():
    hist = Histogram()
    for i in range(1, 1001):
        hist.record(i / 1000.0)
    p50 = hist.percentile(50)
    p99 = hist.percentile(99)
    assert 0.45 < p50 < 0.55
    assert 0.94 < p99 <= 1.0
    assert p99 > p50


def test_histogram_clamps_negative():
    hist = Histogram()
    hist.record(-5.0)
    assert hist.min == 0.0


def test_registry_reuse_and_snapshot():
    registry = StatsRegistry()
    registry.counter("io.reads").add(3)
    assert registry.counter("io.reads").value == 3
    registry.histogram("lat").record(0.1)
    snap = registry.snapshot()
    assert snap["io.reads"] == 3
    assert snap["lat.count"] == 1


def test_gauge():
    gauge = Gauge("lag")
    gauge.set(7.0)
    gauge.add(3.0)
    assert gauge.value == 10.0
    gauge.add(-4.0)
    assert gauge.value == 6.0


def test_registry_gauge_in_snapshot():
    registry = StatsRegistry()
    registry.gauge("repl.lag").set(12)
    registry.counter("ops").add(2)
    snap = registry.snapshot()
    assert snap["repl.lag"] == 12
    assert snap["ops"] == 2


def test_histogram_summary_keys_in_snapshot():
    registry = StatsRegistry()
    hist = registry.histogram("lat")
    for i in range(1, 101):
        hist.record(i / 100.0)
    snap = registry.snapshot()
    # Pre-existing keys stay; the percentile/sum keys are additive.
    assert snap["lat.count"] == 100
    assert abs(snap["lat.sum"] - 50.5) < 1e-9
    assert abs(snap["lat.mean"] - 0.505) < 1e-9
    assert 0.45 < snap["lat.p50"] < 0.55
    assert 0.90 < snap["lat.p95"] <= 1.0
    assert 0.94 < snap["lat.p99"] <= 1.0
    assert snap["lat.max"] == 1.0
    assert snap["lat.p50"] <= snap["lat.p95"] <= snap["lat.p99"]


def test_percentile_exact():
    values = [float(i) for i in range(1, 101)]
    assert percentile_exact(values, 50) == 50.5
    assert percentile_exact(values, 100) == 100.0
    assert percentile_exact(values, 0) == 1.0
    assert percentile_exact([], 50) == 0.0


def test_racing_lookups_of_a_new_metric_share_one_object_and_lose_no_increment():
    registry = StatsRegistry()
    start = threading.Barrier(8)
    seen = []

    def worker():
        start.wait(timeout=30)
        for __ in range(2000):
            registry.counter("x").add(1)
            registry.histogram("h").record(1e-6)
            registry.gauge("g").add(1)
        seen.append((registry.counter("x"), registry.histogram("h"), registry.gauge("g")))

    threads = [threading.Thread(target=worker) for __ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 and all(handles == seen[0] for handles in seen)
    assert all(a is b for handles in seen for a, b in zip(handles, seen[0]))
    assert registry.counter("x").value == 16000
    assert registry.histogram("h").count == 16000
    assert registry.gauge("g").value == 16000


def _two_argument_log_bucket(value):
    """Histogram.record's bucket index as it was written before the
    one-argument form -- the reference the fast path must match bit for bit."""
    return 0 if value < 1e-9 else int(math.log(value / 1e-9, 1.05)) + 1


def test_histogram_buckets_match_the_two_argument_log_form():
    edges = [1e-9 * 1.05 ** k for k in range(0, 430)]  # 1 ns .. ~1.3 s
    sweep = [m * 10.0 ** e for e in range(-9, 1) for m in (1.0, 1.7, 2.5, 3.3, 4.9, 7.1, 9.99)]
    values = edges + [math.nextafter(v, 0.0) for v in edges] \
        + [math.nextafter(v, math.inf) for v in edges] + sweep + [0.0, 5e-10]
    expected = {}
    hist = Histogram()
    for value in values:
        bucket = _two_argument_log_bucket(value)
        expected[bucket] = expected.get(bucket, 0) + 1
        hist.record(value)
    # The folded view, bucket for bucket.
    assert hist.view().counts == expected
    assert hist.min == 0.0 and hist.max == max(values)
    summary = hist.summary()
    assert summary["count"] == len(values) and summary["max"] == max(values)
    assert summary["sum"] == pytest.approx(math.fsum(values))


# -- per-thread shards --------------------------------------------------------


@contextlib.contextmanager
def _racing(count, target):
    """Run ``target(slot)`` on ``count`` threads under a 1 us switch
    interval while the ``with`` body runs; then join them and check every
    one finished."""
    threads = [threading.Thread(target=target, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        yield
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_sharded_counts_are_exact_under_a_short_switch_interval():
    counter, hist = Counter("ops"), Histogram("lat")
    start = threading.Barrier(8)

    def worker(__):
        start.wait(timeout=30)
        for i in range(3000):
            counter.add(2)
            hist.record(i * 1e-6)

    with _racing(8, worker):
        pass
    assert counter.value == 8 * 3000 * 2
    assert hist.count == 8 * 3000
    assert sum(hist.view().counts.values()) == 8 * 3000
    assert hist.max == 2999 * 1e-6


def test_sharded_reads_beside_writers_opening_new_buckets():
    # A read folds the shard each writer is still recording into.  Every
    # record here opens a bucket that shard has not seen (the values
    # climb), so a fold iterating a live bucket dict would see it change
    # size mid-loop.
    registry = StatsRegistry()
    hist, shared = Histogram("lat"), registry.histogram("lat")
    start = threading.Barrier(9)
    records = 1500

    def worker(slot):
        start.wait(timeout=30)
        for i in range(records):
            value = 1e-9 * 1.05 ** (slot + 8 * i)
            hist.record(value)
            shared.record(value)

    with _racing(8, worker):
        start.wait(timeout=30)
        reads = 0
        while shared.count < 8 * records or reads < 100:
            hist.summary()
            registry.snapshot()
            reads += 1
    assert hist.count == shared.count == 8 * records
    assert registry.snapshot()["lat.count"] == 8 * records


def test_owned_shards_sum_with_thread_shards_and_reset_in_place():
    """An owned shard (one writer that serializes its writes under a lock
    of its own) is read like a thread's: its writes sum with every
    thread's, and it keeps counting after the threads are gone."""
    registry = StatsRegistry()
    counter, hist = registry.counter("ops"), registry.histogram("sizes")
    tally, series = counter.owned(), hist.owned()
    lock = threading.Lock()

    def owner(__):
        for __ in range(500):
            with lock:
                tally.value += 2
                hist.record(1, series)

    def others(__):
        for __ in range(500):
            counter.add(1)
            hist.record(3)

    with _racing(2, owner), _racing(2, others):
        pass
    assert counter.value == 2 * 500 * 2 + 2 * 500
    assert hist.count == 4 * 500 and hist.summary()["sum"] == 2 * 500 * (1 + 3)
    assert registry.snapshot()["ops"] == counter.value
    with lock:
        tally.value += 5
        hist.record(7, series)
    counter.add(1)
    assert counter.value == 2 * 500 * 2 + 2 * 500 + 6
    assert hist.count == 4 * 500 + 1 and hist.max == 7


def test_short_lived_threads_lose_no_count_and_leave_no_shards_behind():
    counter, hist = Counter("ops"), Histogram("lat")

    def burst(__):
        for __ in range(10):
            counter.add(1)
            hist.record(1e-4)

    for __ in range(10):  # 500 threads, 50 alive at a time
        with _racing(50, burst):
            pass
    assert counter.value == 500 * 10
    assert hist.count == 500 * 10
    # Every writer is gone, so the base shard is all that is left (white
    # box: the shard set is what a long-running server would otherwise grow).
    for metric in (counter, hist):
        assert not metric._shards
    counter.add(5)  # the reader's own thread registers once more
    assert counter.value == 500 * 10 + 5


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_a_forked_child_can_register_a_shard():
    from repro.util.stats import _REGISTRATION

    counter, hist = Counter("ops"), Histogram("lat")
    counter.add(3)
    hist.record(1e-3)
    held = threading.Event()

    def hold_the_lock():
        # fork() below is asked for while this thread holds the lock.
        with _REGISTRATION:
            held.set()
            time.sleep(0.05)

    holder = threading.Thread(target=hold_the_lock)
    holder.start()
    assert held.wait(timeout=30)
    pid = os.fork()
    if pid == 0:  # child: report through the exit status, never return
        status = 1
        try:
            signal.alarm(20)  # a lock inherited held would hang the child
            free = _REGISTRATION.acquire(blocking=False)
            if free:
                _REGISTRATION.release()
            worker = threading.Thread(target=lambda: (
                counter.add(4), hist.record(2e-3),
            ))
            worker.start()
            worker.join(timeout=10)
            if free and counter.value == 7 and hist.count == 2:
                status = 0
        finally:
            os._exit(status)
    holder.join(timeout=30)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert counter.value == 3 and hist.count == 1


def test_a_signal_sample_counts_only_what_was_recorded_since_the_last():
    """Every signal is a delta between two samples: a stall and a KDS round
    trip recorded before one sample() are gone from the next; one recorded
    after it is there."""
    from repro import InMemoryKDS, ShieldOptions, open_shield_db
    from repro.env.mem import MemEnv
    from repro.lsm.options import Options

    with open_shield_db(
        "/signals", ShieldOptions(kds=InMemoryKDS()), Options(env=MemEnv()),
    ) as db:
        stalls = db.stats.histogram("db.stall_seconds")
        stalls.record(0.5)
        db.put(b"k", b"v")
        db.flush()  # a new SST: a new DEK from the KDS
        first = db.signals.sample()  # the first sample is the lifetime
        assert first["stall_seconds"] == 0.5 and first["stall_count"] == 1
        assert first["kds_count"] >= 1 and first["kds_p95_s"] > 0.0

        quiet = db.signals.sample()
        assert quiet["stall_seconds"] == 0.0 and quiet["stall_count"] == 0
        assert quiet["kds_count"] == 0 and quiet["kds_p95_s"] == 0.0

        stalls.record(0.25)
        db.put(b"k2", b"v")
        db.flush()
        later = db.signals.sample()
        assert later["stall_seconds"] == 0.25 and later["stall_count"] == 1
        assert later["kds_count"] >= 1 and later["kds_p95_s"] > 0.0
