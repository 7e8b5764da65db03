"""Derived observability signals: the numbers an operator actually tunes by.

The engine's :class:`~repro.util.stats.StatsRegistry` accumulates raw
counters and histograms; this module turns them into the handful of
*derived* signals the paper's evaluation reasons about -- write-stall
time, write/read/space amplification, per-level compaction debt, KDS
round-trip latency, and encryption cost per compaction byte -- computed
over a window so a long-running server reports what is happening *now*,
not since boot.

One windowing rule: every source metric only accumulates, so a signal is
the *difference between successive* :meth:`SignalEngine.sample` calls --
a counter's value now minus then, a histogram's cumulative buckets now
minus then (stall seconds, KDS latency) -- and the caller's sampling
cadence defines the window.  The first sample is lifetime-cumulative.

The :class:`SignalEngine` is deliberately read-only with respect to the
DB: it may be called from any thread at any time without perturbing the
engine (one mutex hop for the tree shape, everything else lock-free
snapshots).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.lsm.compaction import level_target

#: Signal keys guaranteed present in every :meth:`SignalEngine.sample` dict.
SIGNAL_KEYS = (
    "interval_s",
    "stall_seconds",
    "stall_count",
    "slowdown_writes",
    "write_amp",
    "read_amp",
    "space_amp",
    "compaction_debt_bytes",
    "level_debt_bytes",
    "l0_files",
    "write_bytes_per_s",
    "get_ops_per_s",
    "scan_ops_per_s",
    "kds_p95_s",
    "kds_count",
    "encrypt_s_per_compaction_byte",
)

#: Cumulative counters sampled for delta-based signals.
_DELTA_COUNTERS = (
    "db.user_write_bytes",
    "db.flush_bytes",
    "db.compaction_bytes_read",
    "db.compaction_bytes_written",
    "db.gets",
    "db.get_sst_probes",
    "db.scans",
    "db.slowdown_writes",
)


#: Signals merged worst-of (max) across shards; volumes/rates are summed.
WORST_OF_KEYS = (
    "interval_s",
    "write_amp",
    "read_amp",
    "space_amp",
    "kds_p95_s",
    "encrypt_s_per_compaction_byte",
)


def merge_signals(samples: list[dict]) -> dict:
    """Cross-shard signal merge: volumes and rates sum (work is additive),
    amplifications and latencies take the worst shard (one hot shard's
    pain must not be averaged away), level debt merges element-wise."""
    samples = [sample for sample in samples if sample]
    if not samples:
        return {}
    out: dict = {}
    for sample in samples:
        for key, value in sample.items():
            if key == "level_debt_bytes":
                prev = out.setdefault(key, [])
                for index, item in enumerate(value):
                    if index < len(prev):
                        prev[index] += item
                    else:
                        prev.append(item)
            elif key in WORST_OF_KEYS:
                out[key] = max(out.get(key, 0.0), value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
            else:
                out.setdefault(key, value)
    return out


def _ratio(num: float, den: float, default: float = 0.0) -> float:
    return num / den if den > 0 else default


class SignalEngine:
    """Computes the derived-signal dict for one :class:`repro.lsm.db.DB`.

    ``sample()`` advances the delta baseline (call it on a steady cadence:
    the stats exporter does, once per export).
    """

    def __init__(self, db, time_fn=None):
        self._db = db
        self._time_fn = time_fn if time_fn is not None else db.clock.now
        self._lock = threading.Lock()
        self._prev_raw: dict[str, float] = {}
        self._prev_views: dict = {}
        self._prev_t: Optional[float] = None

    # ------------------------------------------------------------------

    def sample(self) -> dict:
        """Compute every signal over the interval since the last sample."""
        db = self._db
        now = self._time_fn()
        raw = {name: db.stats.counter(name).value for name in _DELTA_COUNTERS}
        views = {"stall": db.stats.histogram("db.stall_seconds").view()}
        key_client = getattr(db.provider, "key_client", None)
        if key_client is not None:
            views["kds"] = key_client.stats.histogram("keyclient.kds_s").view()
        level_sizes = db.level_sizes()
        l0_files = db.num_files_at_level(0)

        with self._lock:
            prev, prev_t = self._prev_raw, self._prev_t
            self._prev_raw, self._prev_t = raw, now
            prev_views, self._prev_views = self._prev_views, views

            def delta(name: str) -> float:
                return raw[name] - prev.get(name, 0.0)

            interval = (now - prev_t) if prev_t is not None else 0.0

            user_bytes = delta("db.user_write_bytes")
            persisted = delta("db.flush_bytes") + delta(
                "db.compaction_bytes_written"
            )
            gets = delta("db.gets")
            probes = delta("db.get_sst_probes")
            scans = delta("db.scans")
            compaction_out = delta("db.compaction_bytes_written")
            encrypt_s = self._encrypt_seconds_delta(prev)

        def interval_summary(name: str) -> dict:
            view, before = views[name], prev_views.get(name)
            return (view if before is None else view.since(before)).summary()

        stall = interval_summary("stall")
        debt = self._level_debt(level_sizes, l0_files)
        signals = {
            "interval_s": interval,
            "stall_seconds": stall["sum"],
            "stall_count": stall["count"],
            "slowdown_writes": delta("db.slowdown_writes"),
            # Write amp: persisted bytes (flush + compaction output) per
            # user byte.  1.0 = every byte written exactly once.
            "write_amp": _ratio(persisted, user_bytes, default=1.0),
            # Read amp: SST files probed per point lookup.
            "read_amp": _ratio(probes, gets),
            "space_amp": self._space_amp(level_sizes),
            "compaction_debt_bytes": sum(debt),
            "level_debt_bytes": debt,
            "l0_files": l0_files,
            "write_bytes_per_s": _ratio(user_bytes, interval),
            "get_ops_per_s": _ratio(gets, interval),
            "scan_ops_per_s": _ratio(scans, interval),
            "encrypt_s_per_compaction_byte": _ratio(encrypt_s, compaction_out),
            "kds_p95_s": 0.0,
            "kds_count": 0,
        }
        if key_client is not None:
            kds = interval_summary("kds")
            signals["kds_p95_s"], signals["kds_count"] = kds["p95"], kds["count"]
        return signals

    # ------------------------------------------------------------------

    def _encrypt_seconds_delta(self, prev: dict) -> float:
        """Encryption seconds spent by compaction since the last sample.

        Reads the DB's background cost breakdown (always collecting on the
        background threads); the cumulative-to-delta conversion rides the
        same ``_prev_raw`` mechanism as the counters.
        """
        breakdown = getattr(self._db, "background_costs", None)
        if breakdown is None:
            return 0.0
        per_class = breakdown().as_dict().get("compaction", {})
        total = per_class.get("encrypt_seconds", 0.0) + per_class.get(
            "encrypt_init_seconds", 0.0
        )
        key = "_bg.compaction_encrypt_s"
        before = prev.get(key, 0.0)
        self._prev_raw[key] = total
        return total - before

    def _space_amp(self, level_sizes: list[int]) -> float:
        """Total SST bytes over the bottommost level's bytes.

        The bottommost non-empty level approximates the fully-compacted
        (deduplicated) data size; everything above it is space the
        merge schedule has not yet reclaimed.  1.0 = perfectly compacted.
        """
        total = sum(level_sizes)
        bottom = 0
        for size in reversed(level_sizes):
            if size > 0:
                bottom = size
                break
        return _ratio(total, bottom, default=1.0)

    def _level_debt(self, level_sizes: list[int], l0_files: int) -> list[int]:
        """Bytes each level holds beyond its target (RocksDB's
        pending-compaction-bytes estimate, kept per level).

        L0's target is expressed in files, so its debt is all L0 bytes
        once the file-count trigger is met (every byte must move to L1).
        """
        options = self._db.options
        debt = [0] * len(level_sizes)
        if l0_files >= options.level0_file_num_compaction_trigger:
            debt[0] = level_sizes[0]
        for level in range(1, len(level_sizes)):
            target = level_target(options, level)
            over = level_sizes[level] - target
            if over > 0:
                debt[level] = over
        return debt
