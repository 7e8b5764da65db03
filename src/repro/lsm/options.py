"""Engine configuration (the analogue of rocksdb::Options).

Defaults follow the paper's experimental setup where it names a value
(4 KiB data blocks, fanout 10, leveled compaction) and RocksDB defaults
elsewhere, scaled down so Python-speed workloads still exercise flushes and
multi-level compactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.env.base import Env
    from repro.lsm.filecrypto import CryptoProvider

COMPACTION_LEVELED = "leveled"
COMPACTION_UNIVERSAL = "universal"
COMPACTION_FIFO = "fifo"
# Lazy-leveling (Dostoevsky-style hybrid): tiered upper area, leveled
# bottom -- the middle ground between the two.
COMPACTION_LAZY_LEVELED = "lazy-leveled"


@dataclass
class Options:
    """Tunable knobs for :class:`repro.lsm.db.DB`."""

    # Storage backend; defaults to the in-memory env when None.
    env: Optional["Env"] = None
    # Engine clock (timestamps, FIFO TTL); defaults to the real clock.
    # Inject a VirtualClock in tests to control time.
    clock: Optional[object] = None
    # Encryption seam; None means plaintext files.
    crypto_provider: Optional["CryptoProvider"] = None
    # Freshness seam (SHIELD++): a repro.integrity.counter.TrustedCounter.
    # When set, every manifest transition advances the counter with the
    # Merkle root of the live SST set, and DB.open verifies the recovered
    # store against it -- a replayed old snapshot fails with RollbackError.
    # None (the default) keeps rollback protection off.
    trusted_counter: Optional[object] = None

    create_if_missing: bool = True
    # Memtable switches to immutable at this size.
    write_buffer_size: int = 256 * 1024
    # SST data block payload target (RocksDB default 4 KiB).
    block_size: int = 4096
    # Level size fanout (RocksDB/LevelDB default 10).
    fanout: int = 10
    # L0 file count that triggers compaction into L1.
    level0_file_num_compaction_trigger: int = 4
    # L0 file count at which writers are throttled (RocksDB's slowdown
    # trigger): each write pays a small delay so background work catches up.
    level0_slowdown_writes_trigger: int = 8
    # Delay charged per write while in the slowdown regime.
    slowdown_delay_s: float = 0.0005
    # L0 file count at which writers stall completely.
    level0_stop_writes_trigger: int = 12
    # Target size for L1 in bytes; level N target is base * fanout**(N-1).
    max_bytes_for_level_base: int = 1024 * 1024
    # Cap on individual compaction output files.
    target_file_size: int = 512 * 1024
    num_levels: int = 7

    compaction_style: str = COMPACTION_LEVELED
    # Universal: merge when the number of sorted runs exceeds this.
    universal_min_merge_width: int = 2
    universal_max_sorted_runs: int = 8
    # Universal size-ratio trigger (percent), RocksDB-style: when set
    # (>= 0), merge the newest runs whose sizes stay within the ratio of
    # the accumulated window instead of always merging everything.
    # None keeps the simpler merge-all behaviour.
    universal_size_ratio: Optional[int] = None
    # FIFO: delete oldest files above this total size.
    fifo_max_table_files_size: int = 8 * 1024 * 1024
    # FIFO: additionally expire files older than this (0 disables).
    fifo_ttl_seconds: float = 0.0

    # Background flush/compaction worker threads.
    max_background_jobs: int = 2
    # Block cache capacity in bytes (0 disables).
    block_cache_size: int = 8 * 1024 * 1024

    # WAL behaviour.
    wal_enabled: bool = True
    wal_sync_writes: bool = False  # fsync every write (off: buffered I/O)
    # SHIELD WAL buffer size in bytes; 0 means encrypt-per-record
    # (Section 5.3; the paper sweeps 0-2048, default 512).
    wal_buffer_size: int = 0

    # SHIELD chunked compaction encryption (Section 5.2 / Figure 13): the
    # unit outputs are sealed in and inputs are read and opened in.  Threads
    # buy nothing in CPython (a SHAKE squeeze holds the GIL; DESIGN.md
    # fidelity notes), so the default stays 1.
    encryption_chunk_size: int = 64 * 1024
    encryption_threads: int = 1

    # SST data-block compression ("none" or "zlib"), applied before
    # encryption -- ciphertext does not compress.
    compression: str = "none"

    # Offloaded compaction: when set, merge compactions are shipped to this
    # service (a repro.dist.CompactionService) instead of running locally.
    compaction_service: Optional[object] = None

    # Only False is legal (``validate`` refuses True): there is no adaptive
    # controller, so a DB runs the picker ``compaction_style`` names for its
    # whole life.  The field stays for callers that still pass False.
    adaptive_compaction: bool = False

    def validate(self) -> None:
        from repro.errors import InvalidArgumentError

        if self.compaction_style not in (
            COMPACTION_LEVELED,
            COMPACTION_UNIVERSAL,
            COMPACTION_FIFO,
            COMPACTION_LAZY_LEVELED,
        ):
            raise InvalidArgumentError(
                f"unknown compaction style: {self.compaction_style}"
            )
        if self.write_buffer_size <= 0:
            raise InvalidArgumentError("write_buffer_size must be positive")
        if self.block_size <= 0:
            raise InvalidArgumentError("block_size must be positive")
        if self.fanout < 2:
            raise InvalidArgumentError("fanout must be at least 2")
        # Below these the pickers divide by zero or index past the last
        # level, and the worker pool refuses to start.
        if self.num_levels < 2:
            raise InvalidArgumentError("num_levels must be at least 2")
        for name in (
            "level0_file_num_compaction_trigger",
            "max_bytes_for_level_base",
            "universal_max_sorted_runs",
            "fifo_max_table_files_size",
            "max_background_jobs",
        ):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.encryption_chunk_size <= 0:
            raise InvalidArgumentError("encryption_chunk_size must be positive")
        if self.encryption_threads < 1:
            raise InvalidArgumentError("encryption_threads must be >= 1")
        if self.wal_buffer_size < 0:
            raise InvalidArgumentError("wal_buffer_size must be >= 0")
        if self.compression not in ("none", "zlib"):
            raise InvalidArgumentError(
                f"unknown compression: {self.compression}"
            )
        if self.adaptive_compaction:
            raise InvalidArgumentError(
                "adaptive_compaction: the adaptive compaction controller was "
                "removed; choose a compaction_style"
            )


@dataclass
class WriteOptions:
    """Per-write options."""

    sync: bool = False           # fsync the WAL before acking
    disable_wal: bool = False    # skip the WAL entirely (crash-unsafe)


@dataclass
class ReadOptions:
    """Per-read options."""

    snapshot: Optional[int] = None   # sequence number to read at
