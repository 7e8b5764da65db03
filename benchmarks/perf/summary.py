"""Latency summaries: median, and tail quantiles that repeat from run to run."""

from __future__ import annotations

import statistics

from spec import TAIL_MIN_WINDOW, TAIL_WINDOWS


def p50_us(per_client: list[list[float]]) -> float:
    return statistics.median(x for samples in per_client for x in samples) * 1e6


def windowed_tail_us(per_client: list[list[float]], quantile: float) -> float:
    """Median over equal-count windows of each window's ``quantile``.

    A plain p99 of one run is set by a handful of background spikes and
    moved 15-25% between identical runs; the median of per-window tails
    moves less.  Window ``i`` pools every client's ``i``-th slice of its
    samples, in issue order.
    """
    total = sum(len(samples) for samples in per_client)
    windows = max(1, min(TAIL_WINDOWS, total // TAIL_MIN_WINDOW))
    tails = []
    for window in range(windows):
        pooled = []
        for samples in per_client:
            lo = len(samples) * window // windows
            hi = len(samples) * (window + 1) // windows
            pooled.extend(samples[lo:hi])
        if pooled:
            pooled.sort()
            tails.append(pooled[min(len(pooled) - 1, int(len(pooled) * quantile))])
    return statistics.median(tails) * 1e6
