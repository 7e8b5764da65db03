"""Lightweight metrics: counters, latency histograms, and a registry.

The benchmark harness and the simulated deployments both report through
these types, mirroring RocksDB's Statistics object at a much smaller scale.
"""

from __future__ import annotations

import math
import threading
import time


class Counter:
    """A thread-safe monotonically increasing counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A thread-safe point-in-time value (replication lag, queue depth)."""

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _Slice:
    """One time slice of a histogram's recent history (see window_summary)."""

    __slots__ = ("start", "counts", "n", "sum", "max")

    def __init__(self, start: float):
        self.start = start
        self.counts: dict[int, int] = {}
        self.n = 0
        self.sum = 0.0
        self.max = -math.inf


class Histogram:
    """Exponential-bucket latency histogram (microsecond-scale friendly).

    Buckets grow geometrically, so percentile estimates stay within ~5% of
    the true value across nine orders of magnitude while using O(1) memory.

    Besides the lifetime-cumulative view (``summary``), the histogram keeps
    a short ring of *time slices* so :meth:`window_summary` can answer
    "what was the p99 over the last minute" on a long-running server.
    Slices age out naturally as new records arrive, so windowed readers
    never race a ``reset()`` and writers never block on a reader epoch.
    """

    _GROWTH = 1.05
    _LOG_GROWTH = math.log(_GROWTH)
    #: Window sub-division: finer slices cost memory, coarser slices make
    #: the window boundary fuzzier.  8 slices keeps the error under 1/8th
    #: of the window while the ring stays tiny.
    WINDOW_SLICES = 8
    DEFAULT_WINDOW_S = 60.0

    def __init__(self, name: str = "", window_s: float = DEFAULT_WINDOW_S,
                 time_fn=time.monotonic):
        self.name = name
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}
        self._n = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._window_s = window_s
        self._slice_len = window_s / self.WINDOW_SLICES
        self._time_fn = time_fn
        self._slices: list[_Slice] = []

    def record(self, value: float) -> None:
        if value < 0:
            value = 0.0
        # log(x) / log(growth) is exactly what two-argument math.log computes.
        bucket = 0 if value < 1e-9 else int(math.log(value / 1e-9) / self._LOG_GROWTH) + 1
        now = self._time_fn()
        with self._lock:
            self._counts[bucket] = self._counts.get(bucket, 0) + 1
            self._n += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            cur = self._slices[-1] if self._slices else None
            if cur is None or now - cur.start >= self._slice_len:
                cur = _Slice(now)
                self._slices.append(cur)
                # Drop slices that can no longer intersect the window.
                horizon = now - self._window_s - self._slice_len
                while self._slices and self._slices[0].start < horizon:
                    self._slices.pop(0)
            cur.counts[bucket] = cur.counts.get(bucket, 0) + 1
            cur.n += 1
            cur.sum += value
            if value > cur.max:
                cur.max = value

    def _bucket_upper(self, bucket: int) -> float:
        if bucket == 0:
            return 1e-9
        return 1e-9 * self._GROWTH ** bucket

    def percentile(self, p: float) -> float:
        """Return the approximate ``p``-th percentile (p in [0, 100])."""
        with self._lock:
            return self._percentile_locked(p)

    def _percentile_locked(self, p: float) -> float:
        return self._percentile_of(self._counts, self._n, self._max, p)

    def _percentile_of(
        self, counts: dict[int, int], n: int, max_value: float, p: float
    ) -> float:
        if n == 0:
            return 0.0
        target = n * p / 100.0
        cumulative = 0
        for bucket in sorted(counts):
            cumulative += counts[bucket]
            if cumulative >= target:
                return min(self._bucket_upper(bucket), max_value)
        return max_value

    def summary(self) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max in one lock acquisition."""
        with self._lock:
            if self._n == 0:
                return {
                    "count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                    "p95": 0.0, "p99": 0.0, "max": 0.0,
                }
            return {
                "count": self._n,
                "sum": self._sum,
                "mean": self._sum / self._n,
                "p50": self._percentile_locked(50),
                "p95": self._percentile_locked(95),
                "p99": self._percentile_locked(99),
                "max": self._max,
            }

    def window_summary(self, window_s: float | None = None) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max over (approximately) the last
        ``window_s`` seconds (default: the histogram's configured window).

        Merges the live time slices that intersect the window -- a read,
        not a mutation, so concurrent recorders are never perturbed and no
        ``reset()`` coordination is needed.  A slice is included when any
        part of it falls inside the window, so the effective span is
        ``window_s`` plus at most one slice length.
        """
        if window_s is None:
            window_s = self._window_s
        now = self._time_fn()
        horizon = now - window_s - self._slice_len
        counts: dict[int, int] = {}
        n = 0
        total = 0.0
        max_value = -math.inf
        with self._lock:
            for piece in self._slices:
                if piece.start < horizon:
                    continue
                n += piece.n
                total += piece.sum
                if piece.max > max_value:
                    max_value = piece.max
                for bucket, count in piece.counts.items():
                    counts[bucket] = counts.get(bucket, 0) + count
        if n == 0:
            return {
                "count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": n,
            "sum": total,
            "mean": total / n,
            "p50": self._percentile_of(counts, n, max_value, 50),
            "p95": self._percentile_of(counts, n, max_value, 95),
            "p99": self._percentile_of(counts, n, max_value, 99),
            "max": max_value,
        }

    def reset(self) -> None:
        """Zero the histogram *in place*: held references keep recording."""
        with self._lock:
            self._counts.clear()
            self._n = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._slices.clear()

    @property
    def count(self) -> int:
        with self._lock:
            return self._n

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._n if self._n else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._n else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._n else 0.0


class StatsRegistry:
    """A named collection of counters and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # An existing metric is one dict read (atomic under the GIL; entries are
    # never removed); the lock is taken only to create one.
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name))
        return metric

    def snapshot(self) -> dict[str, float]:
        """Flatten every metric into a name -> value mapping.

        Counters and gauges appear under their bare name; each histogram
        contributes ``.count``/``.sum``/``.mean``/``.p50``/``.p95``/
        ``.p99``/``.max`` (the pre-existing keys are kept for backward
        compatibility).
        """
        out: dict[str, float] = {}
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        for name, counter in counters.items():
            out[name] = counter.value
        for name, gauge in gauges.items():
            out[name] = gauge.value
        for name, hist in histograms.items():
            summary = hist.summary()
            for stat, value in summary.items():
                out[f"{name}.{stat}"] = value
        return out

    def reset(self) -> None:
        """Zero every metric in place (held references stay live)."""
        with self._lock:
            for counter in self._counters.values():
                counter.reset()
            for gauge in self._gauges.values():
                gauge.reset()
            for histogram in self._histograms.values():
                histogram.reset()


def percentile_exact(values: list[float], p: float) -> float:
    """Exact percentile of a list (used by the bench harness reports)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction
