"""Lightweight metrics: counters, latency histograms, and a registry.

The benchmark harness and the simulated deployments both report through
these types, mirroring RocksDB's Statistics object at a much smaller scale.

Every metric only accumulates: a counter from zero, a histogram from no
samples.  Nothing resets one, and nothing ages a sample out.  A reader that
wants an interval -- the derived signals do (:mod:`repro.obs.signals`) --
takes the difference between two reads: ``Counter.value`` twice, or
``Histogram.view`` twice and :meth:`_Slice.since`.

``Counter`` and ``Histogram`` are written on every block read, cipher call
and request, so a write touches only the calling thread's *shard*: no lock,
no registry lookup, no clock.  A read (``value``, ``summary``, ``view``,
``StatsRegistry.snapshot``) folds the shards and is exact once the writers
it races have returned.  A thread's shard outlives it only until the next
read or registration folds it into the metric's base shard, so the shard
count follows live threads.

A writer that already serializes its writes under a lock of its own (the
engine's commit, under the engine mutex) can take an *owned* shard instead
(``Counter.owned``, ``Histogram.owned``): no thread-local lookup, and an
owned counter's write is a bare int add.  Reads treat it as any other
shard; it lives as long as the metric.
"""

from __future__ import annotations

import math
import os
import threading

#: Guards every sharded metric's shard set and base shard -- never a write,
#: which touches only its own thread's shard.  Held across fork(), so a
#: child (a shard worker) never inherits it locked or a fold half done.
_REGISTRATION = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_REGISTRATION.acquire,
        after_in_parent=_REGISTRATION.release,
        after_in_child=_REGISTRATION.release,
    )


class _Lease:
    """Sits beside a shard in its thread's slot of a metric's
    ``threading.local`` and dies with the thread: it hands the shard to the
    metric's dead list, which the next read or registration folds.  It takes
    no lock, because it may run inside fork() in the child."""

    __slots__ = ("shard", "dead")

    def __init__(self, shard, dead: list):
        self.shard = shard
        self.dead = dead

    def __del__(self):
        self.dead.append(self.shard)


class _Sharded:
    """Per-thread shards of one metric and the base shard that dead
    threads' shards fold into.  Subclasses say what a shard is."""

    def __init__(self):
        self._local = threading.local()
        self._shards: set = set()
        self._dead: list = []
        self._base = self._new_shard()

    def _new_shard(self):
        raise NotImplementedError

    def _absorb(self, shard) -> None:
        """Fold a dead thread's shard into the base."""
        raise NotImplementedError

    def _register(self):
        """The calling thread's first write: give it a shard."""
        shard = self._new_shard()
        with _REGISTRATION:
            self._fold()
            self._shards.add(shard)
        self._local.shard = shard
        self._local.lease = _Lease(shard, self._dead)
        return shard

    def _fold(self) -> None:
        """Move dead threads' shards into the base (lock held)."""
        dead = self._dead
        while dead:
            shard = dead.pop()
            self._shards.discard(shard)
            self._absorb(shard)

    def _live(self) -> list:
        """The base and every live shard (lock held)."""
        self._fold()
        return [self._base, *self._shards]

    def owned(self):
        """A shard for one writer that holds a lock of its own across every
        write, so it needs no thread-local lookup.  Nothing folds it: it is
        read beside the threads' shards for as long as the metric lives."""
        shard = self._new_shard()
        with _REGISTRATION:
            self._shards.add(shard)
        return shard


class _Tally:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class Counter(_Sharded):
    """A thread-safe monotonically increasing counter.  An owned shard
    (:meth:`owned`) is written as ``shard.value += amount``."""

    def __init__(self, name: str = ""):
        self.name = name
        super().__init__()

    def _new_shard(self) -> _Tally:
        return _Tally()

    def _absorb(self, shard: _Tally) -> None:
        self._base.value += shard.value

    def add(self, amount: int = 1) -> None:
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register()
        shard.value += amount

    @property
    def value(self) -> int:
        with _REGISTRATION:
            return sum(shard.value for shard in self._live())


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


_GROWTH = 1.05
_LOG_GROWTH = math.log(_GROWTH)


def _bucket_upper(bucket: int) -> float:
    if bucket == 0:
        return 1e-9
    return 1e-9 * _GROWTH ** bucket


def _percentile_of(counts: dict[int, int], n: int, max_value: float,
                   p: float) -> float:
    if n == 0:
        return 0.0
    target = n * p / 100.0
    cumulative = 0
    for bucket in sorted(counts):
        cumulative += counts[bucket]
        if cumulative >= target:
            return min(_bucket_upper(bucket), max_value)
    return max_value


class _Slice:
    """Bucket counts, sum, min and max: one thread's shard of a histogram,
    or the fold of several (:meth:`Histogram.view`)."""

    __slots__ = ("counts", "sum", "min", "max")

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def merge(self, other: "_Slice") -> None:
        # ``other`` may be a shard its owner is still recording into: copy
        # its buckets in one C call (the GIL held throughout) before the
        # Python loop, which a new bucket would otherwise break mid-way.
        counts = self.counts
        for bucket, count in other.counts.copy().items():
            counts[bucket] = counts.get(bucket, 0) + count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def since(self, earlier: "_Slice") -> "_Slice":
        """What was recorded between ``earlier`` and this view of the same
        histogram.  Min and max stay this view's: lifetime bounds of the
        interval's, which cap its percentiles as a bucket edge would."""
        out = _Slice()
        before = earlier.counts
        for bucket, count in self.counts.items():
            count -= before.get(bucket, 0)
            if count:
                out.counts[bucket] = count
        out.sum = self.sum - earlier.sum
        out.min, out.max = self.min, self.max
        return out

    def summary(self) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max."""
        n = sum(self.counts.values())
        if n == 0:
            return {
                "count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": n,
            "sum": self.sum,
            "mean": self.sum / n,
            "p50": _percentile_of(self.counts, n, self.max, 50),
            "p95": _percentile_of(self.counts, n, self.max, 95),
            "p99": _percentile_of(self.counts, n, self.max, 99),
            "max": self.max,
        }


class Histogram(_Sharded):
    """Exponential-bucket latency histogram (microsecond-scale friendly).

    Buckets grow geometrically, so percentile estimates stay within ~5% of
    the true value across nine orders of magnitude while using O(1) memory.
    An owned shard (:meth:`owned`) is written as ``record(value, shard)``.
    """

    def __init__(self, name: str = ""):
        self.name = name
        super().__init__()

    def _new_shard(self) -> _Slice:
        return _Slice()

    def _absorb(self, shard: _Slice) -> None:
        self._base.merge(shard)

    def record(self, value: float, shard: _Slice | None = None) -> None:
        if value < 0:
            value = 0.0
        # log(x) / log(growth) is exactly what two-argument math.log computes.
        bucket = 0 if value < 1e-9 else int(math.log(value / 1e-9) / _LOG_GROWTH) + 1
        if shard is None:
            try:
                shard = self._local.shard
            except AttributeError:
                shard = self._register()
        counts = shard.counts
        counts[bucket] = counts.get(bucket, 0) + 1
        shard.sum += value
        if value < shard.min:
            shard.min = value
        if value > shard.max:
            shard.max = value

    def view(self) -> _Slice:
        """Every shard folded into one new slice: the lifetime so far."""
        out = _Slice()
        with _REGISTRATION:
            for shard in self._live():
                out.merge(shard)
        return out

    def percentile(self, p: float) -> float:
        """Return the approximate ``p``-th percentile (p in [0, 100])."""
        view = self.view()
        return _percentile_of(view.counts, sum(view.counts.values()), view.max, p)

    def summary(self) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max over the histogram's lifetime."""
        return self.view().summary()

    @property
    def count(self) -> int:
        return sum(self.view().counts.values())

    @property
    def mean(self) -> float:
        view = self.view()
        n = sum(view.counts.values())
        return view.sum / n if n else 0.0

    @property
    def max(self) -> float:
        view = self.view()
        return view.max if view.counts else 0.0

    @property
    def min(self) -> float:
        view = self.view()
        return view.min if view.counts else 0.0


class StatsRegistry:
    """A named collection of counters and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # An existing metric is one dict read (atomic under the GIL; entries are
    # never removed); the lock is taken only to create one.  A hot path binds
    # the metric once and keeps it.
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
