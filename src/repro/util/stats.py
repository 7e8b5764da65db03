"""Lightweight metrics: counters, latency histograms, and a registry.

The benchmark harness and the simulated deployments both report through
these types, mirroring RocksDB's Statistics object at a much smaller scale.

``Counter`` and ``Histogram`` are written on every block read, cipher call
and request, so a write touches only the calling thread's *shard*: no lock,
no registry lookup.  A read (``value``, ``summary``, ``window_summary``,
``StatsRegistry.snapshot``) folds the shards and is exact once the writers
it races have returned.  ``reset()`` bumps the metric's epoch; a shard of an
older epoch reads as zero and is zeroed by its owner on its next write.  A
thread's shard outlives it only until the next read or registration folds it
into the metric's base shard, so the shard count follows live threads.

A writer that already serializes its writes under a lock of its own (the
engine's commit, under the engine mutex) can take an *owned* shard instead
(``Counter.owned``, ``Histogram.owned``): no thread-local lookup, and an
owned counter's write is a bare int add.  Reads and ``reset()`` treat it as
any other shard; it lives as long as the metric.
"""

from __future__ import annotations

import math
import os
import threading
import time

#: Guards every sharded metric's shard set, base shard and epoch -- never a
#: write, which touches only its own thread's shard.  Held across fork(), so
#: a child (a shard worker) never inherits it locked or a fold half done.
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
    """Per-thread shards of one metric, their epoch and the base shard that
    dead threads' shards fold into.  Subclasses say what a shard is."""

    def __init__(self):
        self._epoch = 0
        self._local = threading.local()
        self._shards: set = set()
        self._dead: list = []
        self._base = self._new_shard()

    def _new_shard(self):
        raise NotImplementedError

    def _absorb(self, shard) -> None:
        """Fold a dead thread's shard of the current epoch into the base."""
        raise NotImplementedError

    def _register(self):
        """The calling thread's first write: give it a shard."""
        shard = self._new_shard()
        with _REGISTRATION:
            self._fold()
            shard.epoch = self._epoch
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
            if shard.epoch == self._epoch:
                self._absorb(shard)

    def _live(self) -> list:
        """The base and every shard of the current epoch (lock held)."""
        self._fold()
        epoch = self._epoch
        return [self._base] + [s for s in self._shards if s.epoch == epoch]

    def reset(self) -> None:
        """Zero the metric *in place*: held references keep writing."""
        with _REGISTRATION:
            self._epoch += 1
            self._base = self._new_shard()


class _Tally:
    __slots__ = ("epoch", "value")

    def __init__(self):
        self.epoch = 0
        self.value = 0


class _OwnedTally:
    """A counter shard its owner adds to directly; ``reset()`` moves the
    offset up to the value instead of touching the value."""

    __slots__ = ("value", "offset")

    def __init__(self):
        self.value = 0
        self.offset = 0


class Counter(_Sharded):
    """A thread-safe monotonically increasing counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self._owned: list[_OwnedTally] = []
        super().__init__()

    def _new_shard(self) -> _Tally:
        return _Tally()

    def _absorb(self, shard: _Tally) -> None:
        self._base.value += shard.value

    def owned(self) -> _OwnedTally:
        """A shard for one writer that holds a lock of its own across every
        write: the write is ``shard.value += amount``.  A ``reset()`` racing
        that add may or may not count it, like any write it overlaps."""
        tally = _OwnedTally()
        with _REGISTRATION:
            self._owned.append(tally)
        return tally

    def reset(self) -> None:
        with _REGISTRATION:
            self._epoch += 1
            self._base = self._new_shard()
            for tally in self._owned:
                tally.offset = tally.value

    def add(self, amount: int = 1) -> None:
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._register()
        epoch = self._epoch
        if shard.epoch == epoch:
            shard.value += amount
        else:  # the first add since a reset(): the value, then the epoch
            shard.value = amount
            shard.epoch = epoch

    @property
    def value(self) -> int:
        with _REGISTRATION:
            return sum(shard.value for shard in self._live()) + sum(
                tally.value - tally.offset for tally in self._owned
            )


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
    """One time slice of a histogram's recent history (see window_summary),
    or the fold of several."""

    __slots__ = ("start", "counts", "sum", "min", "max")

    def __init__(self, start: float):
        self.start = start
        self.counts: dict[int, int] = {}
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def merge(self, other: "_Slice") -> None:
        # ``other`` may be a slice its owner is still recording into: copy
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


def _folded(start: float, pieces) -> _Slice:
    out = _Slice(start)
    for piece in pieces:
        out.merge(piece)
    return out


class _Series:
    """One thread's shard of a histogram.  ``state`` is (live slices, the
    fold of the aged-out ones), replaced whole whenever the slices turn, so
    a reader takes a consistent pair in one load; the owner records into
    ``current`` (the last live slice) until ``until``."""

    __slots__ = ("epoch", "state", "current", "until")

    def __init__(self):
        self.epoch = 0
        self.state: tuple[tuple[_Slice, ...], _Slice] = ((), _Slice(-math.inf))
        self.current: _Slice | None = None
        self.until = -math.inf


class Histogram(_Sharded):
    """Exponential-bucket latency histogram (microsecond-scale friendly).

    Buckets grow geometrically, so percentile estimates stay within ~5% of
    the true value across nine orders of magnitude while using O(1) memory.

    Besides the lifetime-cumulative view (``summary``), the histogram keeps
    a short ring of *time slices*, aligned to multiples of the slice length,
    so :meth:`window_summary` can answer "what was the p99 over the last
    minute" on a long-running server.  A slice that leaves the window is
    folded into the lifetime total by the thread that recorded it, so a
    record touches only the current slice.
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
        self._window_s = window_s
        self._slice_len = window_s / self.WINDOW_SLICES
        self._time_fn = time_fn
        super().__init__()

    def _new_shard(self) -> _Series:
        return _Series()

    def _absorb(self, shard: _Series) -> None:
        """Merge a dead thread's slices into the base's, slice by slice
        (they share the aligned starts), and age the base's out as an
        owner would."""
        horizon = self._time_fn() - self._window_s - self._slice_len
        slices, retired = self._base.state
        dead_slices, dead_retired = shard.state
        by_start: dict[float, list[_Slice]] = {}
        aged = [retired, dead_retired]
        for piece in slices + dead_slices:
            if piece.start < horizon:
                aged.append(piece)
            else:
                by_start.setdefault(piece.start, []).append(piece)
        self._base.state = (
            tuple(_folded(start, by_start[start]) for start in sorted(by_start)),
            _folded(-math.inf, aged),
        )

    def owned(self) -> _Series:
        """A shard for one writer that holds a lock of its own across every
        record: ``record(value, shard)`` skips the thread-local lookup.  It
        keeps the epoch protocol of a thread's shard; nothing folds it."""
        shard = _Series()
        with _REGISTRATION:
            shard.epoch = self._epoch
            self._shards.add(shard)
        return shard

    def record(self, value: float, shard: _Series | None = None) -> None:
        if value < 0:
            value = 0.0
        # log(x) / log(growth) is exactly what two-argument math.log computes.
        bucket = 0 if value < 1e-9 else int(math.log(value / 1e-9) / self._LOG_GROWTH) + 1
        now = self._time_fn()
        if shard is None:
            try:
                shard = self._local.shard
            except AttributeError:
                shard = self._register()
        if now >= shard.until or shard.epoch != self._epoch:
            self._turn(shard, now)
        piece = shard.current
        counts = piece.counts
        counts[bucket] = counts.get(bucket, 0) + 1
        piece.sum += value
        if value < piece.min:
            piece.min = value
        if value > piece.max:
            piece.max = value

    def _turn(self, shard: _Series, now: float) -> None:
        """Start the slice ``now`` falls in, folding the slices that can no
        longer intersect the window into the aged-out total -- or, in the
        first record since a reset(), start over.  New objects only: a
        reader holding the old state still sees a consistent one."""
        epoch = self._epoch
        start = now - now % self._slice_len
        until = start + self._slice_len
        if until <= now:  # rounded onto the boundary: the next slice is now's
            start, until = until, until + self._slice_len
        piece = _Slice(start)
        if shard.epoch != epoch:
            state = ((piece,), _Slice(-math.inf))
        else:
            slices, retired = shard.state
            horizon = now - self._window_s - self._slice_len
            if slices and slices[0].start < horizon:
                retired = _folded(
                    -math.inf,
                    [retired] + [s for s in slices if s.start < horizon],
                )
                slices = tuple(s for s in slices if s.start >= horizon)
            state = (slices + (piece,), retired)
        shard.state = state
        shard.current = piece
        shard.until = until
        shard.epoch = epoch  # last: a reader skips the shard until here

    def _fold_view(self, horizon: float | None = None) -> _Slice:
        """Every live shard folded: the lifetime total, or (``horizon``)
        the slices starting at or after it."""
        out = _Slice(-math.inf)
        with _REGISTRATION:
            for shard in self._live():
                slices, retired = shard.state
                if horizon is None:
                    out.merge(retired)
                for piece in slices:
                    if horizon is None or piece.start >= horizon:
                        out.merge(piece)
        return out

    def _horizon(self, window_s: float) -> float:
        return self._time_fn() - window_s - self._slice_len

    def _bucket_upper(self, bucket: int) -> float:
        if bucket == 0:
            return 1e-9
        return 1e-9 * self._GROWTH ** bucket

    def percentile(self, p: float) -> float:
        """Return the approximate ``p``-th percentile (p in [0, 100])."""
        view = self._fold_view()
        return self._percentile_of(
            view.counts, sum(view.counts.values()), view.max, p
        )

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

    def _summarise(self, view: _Slice) -> dict[str, float]:
        n = sum(view.counts.values())
        if n == 0:
            return {
                "count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                "p95": 0.0, "p99": 0.0, "max": 0.0,
            }
        return {
            "count": n,
            "sum": view.sum,
            "mean": view.sum / n,
            "p50": self._percentile_of(view.counts, n, view.max, 50),
            "p95": self._percentile_of(view.counts, n, view.max, 95),
            "p99": self._percentile_of(view.counts, n, view.max, 99),
            "max": view.max,
        }

    def summary(self) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max over the histogram's lifetime."""
        return self._summarise(self._fold_view())

    def window_summary(self, window_s: float | None = None) -> dict[str, float]:
        """count/sum/mean/p50/p95/p99/max over (approximately) the last
        ``window_s`` seconds (default: the histogram's configured window).

        Merges the live time slices that intersect the window -- a read,
        not a mutation, so concurrent recorders are never perturbed.  A
        slice is included when any part of it falls inside the window, so
        the effective span is ``window_s`` plus at most one slice length.
        """
        if window_s is None:
            window_s = self._window_s
        return self._summarise(self._fold_view(self._horizon(window_s)))

    @property
    def count(self) -> int:
        return sum(self._fold_view().counts.values())

    @property
    def mean(self) -> float:
        view = self._fold_view()
        n = sum(view.counts.values())
        return view.sum / n if n else 0.0

    @property
    def max(self) -> float:
        view = self._fold_view()
        return view.max if view.counts else 0.0

    @property
    def min(self) -> float:
        view = self._fold_view()
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
    # the metric once and keeps it: reset() zeroes metrics in place.
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
