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
    counter.reset()
    assert counter.value == 0


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
    registry.reset()
    assert registry.counter("io.reads").value == 0


def test_gauge():
    gauge = Gauge("lag")
    gauge.set(7.0)
    gauge.add(3.0)
    assert gauge.value == 10.0
    gauge.add(-4.0)
    assert gauge.value == 6.0
    gauge.reset()
    assert gauge.value == 0.0


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


def test_histogram_reset_in_place():
    hist = Histogram("lat")
    hist.record(1.0)
    hist.reset()
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.max == 0.0
    # The same object keeps recording after a reset.
    hist.record(2.0)
    assert hist.count == 1
    assert hist.max == 2.0


def test_registry_reset_keeps_histogram_references_live():
    """Regression: reset() used to replace histograms with fresh objects,
    orphaning any held reference -- its records vanished from snapshots."""
    registry = StatsRegistry()
    held = registry.histogram("lat")
    held.record(0.5)
    registry.gauge("depth").set(3)
    registry.reset()
    assert registry.snapshot()["lat.count"] == 0
    assert registry.snapshot()["depth"] == 0.0
    # Recording through the pre-reset reference must still be visible.
    held.record(0.25)
    snap = registry.snapshot()
    assert snap["lat.count"] == 1
    assert registry.histogram("lat") is held


def test_percentile_exact():
    values = [float(i) for i in range(1, 101)]
    assert percentile_exact(values, 50) == 50.5
    assert percentile_exact(values, 100) == 100.0
    assert percentile_exact(values, 0) == 1.0
    assert percentile_exact([], 50) == 0.0


class _FakeTime:
    """Deterministic monotonic clock for windowed-histogram tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_window_summary_empty():
    hist = Histogram("lat")
    window = hist.window_summary()
    assert window["count"] == 0
    assert window["p99"] == 0.0


def test_window_summary_reflects_recent_values_only():
    clock = _FakeTime()
    hist = Histogram("lat", window_s=60.0, time_fn=clock)
    # An old burst of slow operations...
    for _ in range(100):
        hist.record(1.0)
    clock.advance(120.0)
    # ...followed, two minutes later, by fast ones.
    for _ in range(100):
        hist.record(0.001)
    lifetime = hist.summary()
    window = hist.window_summary()
    # Lifetime p99 is stuck at the old slow burst; the window moved on.
    assert lifetime["p99"] > 0.5
    assert window["p99"] < 0.01
    assert window["count"] == 100
    assert lifetime["count"] == 200
    assert window["sum"] < 1.0


def test_window_summary_ages_out_without_reset():
    clock = _FakeTime()
    hist = Histogram("lat", window_s=10.0, time_fn=clock)
    hist.record(5.0)
    assert hist.window_summary()["count"] == 1
    clock.advance(30.0)
    hist.record(0.5)  # the recorder itself rotates/prunes slices
    window = hist.window_summary()
    assert window["count"] == 1
    assert window["max"] == 0.5
    # The lifetime view still remembers everything.
    assert hist.summary()["count"] == 2
    assert hist.summary()["max"] == 5.0


def test_window_summary_merges_slices_within_window():
    clock = _FakeTime()
    hist = Histogram("lat", window_s=60.0, time_fn=clock)
    for _ in range(10):
        hist.record(0.010)
        clock.advance(5.0)  # spread records across several slices
    window = hist.window_summary()
    assert window["count"] == 10
    assert 0.008 < window["p50"] < 0.012


def test_window_summary_custom_span():
    clock = _FakeTime()
    hist = Histogram("lat", window_s=60.0, time_fn=clock)
    hist.record(1.0)
    clock.advance(40.0)
    hist.record(2.0)
    # Full window sees both; a narrow window only the newest (plus at most
    # one slice of slop, which 40s of spacing comfortably exceeds).
    assert hist.window_summary()["count"] == 2
    narrow = hist.window_summary(window_s=10.0)
    assert narrow["count"] == 1
    assert narrow["max"] == 2.0


def test_reset_clears_window():
    clock = _FakeTime()
    hist = Histogram("lat", window_s=60.0, time_fn=clock)
    hist.record(1.0)
    hist.reset()
    assert hist.window_summary()["count"] == 0
    hist.record(0.25)
    assert hist.window_summary()["count"] == 1


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
    hist = Histogram(time_fn=lambda: 0.0)
    for value in values:
        bucket = _two_argument_log_bucket(value)
        expected[bucket] = expected.get(bucket, 0) + 1
        hist.record(value)
    # White box: the folded view, lifetime and windowed, bucket for bucket.
    assert hist._fold_view().counts == expected
    assert hist._fold_view(hist._horizon(60.0)).counts == expected
    assert hist.min == 0.0 and hist.max == max(values)
    summary = hist.summary()
    assert summary["count"] == len(values) and summary["max"] == max(values)
    assert summary["sum"] == pytest.approx(math.fsum(values))
    assert hist.window_summary() == summary


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
    assert sum(hist._fold_view().counts.values()) == 8 * 3000
    assert hist.max == 2999 * 1e-6


def test_sharded_reads_beside_writers_opening_new_buckets():
    # A read folds the slice each writer is still recording into.  Every
    # record here opens a bucket that slice has not seen (the values climb,
    # and ``hist``'s 1 ms slices start empty), so a fold iterating a live
    # bucket dict would see it change size mid-loop.
    registry = StatsRegistry()
    hist, shared = Histogram("lat", window_s=0.008), registry.histogram("lat")
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
            hist.window_summary()
            registry.snapshot()
            reads += 1
    assert hist.count == shared.count == 8 * records
    assert registry.snapshot()["lat.count"] == 8 * records


def test_a_reset_mid_stream_leaves_exactly_the_later_adds():
    # Exact: every thread holds a stale shard when reset() runs between the
    # two halves of its stream, and zeroes it on its next write.
    counter, hist = Counter("ops"), Histogram("lat")
    halfway, resumed = threading.Barrier(9), threading.Barrier(9)

    def halves(__):
        for __ in range(500):
            counter.add(1)
            hist.record(1e-3)
        halfway.wait(timeout=30)
        resumed.wait(timeout=30)
        for __ in range(700):
            counter.add(1)
            hist.record(1e-3)

    with _racing(8, halves):
        halfway.wait(timeout=30)
        counter.reset()
        hist.reset()
        resumed.wait(timeout=30)
    assert counter.value == 8 * 700
    assert hist.count == 8 * 700

    # Racing: an add that saw ``returned`` before it began came after the
    # reset and must count.  Of the others only those that overlapped it
    # may: begun after ``began``, or one per thread caught between its
    # check and its add.
    counter = Counter("racing")
    began, returned = threading.Event(), threading.Event()
    post, overlapped = [0] * 8, [0] * 8
    start = threading.Barrier(9)

    def racer(slot):
        start.wait(timeout=30)
        for __ in range(4000):
            if returned.is_set():
                post[slot] += 1
            elif began.is_set():
                overlapped[slot] += 1
            counter.add(1)

    with _racing(8, racer):
        start.wait(timeout=30)
        while counter.value < 8000:
            pass
        began.set()
        counter.reset()
        returned.set()
    assert sum(post) <= counter.value <= sum(post) + sum(overlapped) + 8


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
    assert hist.window_summary()["count"] == 500 * 10
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


def test_a_clock_on_a_slice_boundary_turns_the_slice_once():
    # 74099.8 % 0.1 rounds to just under 0.1: the aligned slice computed
    # for this instant would end at it, not after it.
    hist = Histogram("lat", window_s=0.8, time_fn=lambda: 74099.8)
    for __ in range(100):
        hist.record(1e-3)
    live_slices, __ = hist._local.shard.state  # white box: this thread's shard
    assert len(live_slices) == 1
    assert hist.window_summary()["count"] == 100
