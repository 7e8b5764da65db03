"""Compaction: the four policies a DB can run, and the one merge body.

The paper's Figure 15 policies -- leveled, universal (tiered), FIFO -- and
lazy-leveling are one :class:`Picker` subclass each, whose ``rules`` list
the work the tree needs in priority order: (score or None, build the job).
Module functions supply the scores and the jobs (leveled, tiered, FIFO
drop).  A DB runs the picker ``Options.compaction_style`` names for life.

A picker inspects a Version and proposes a :class:`CompactionJob`; a
:class:`MergeExecutor` (the DB's or an offloaded worker's) merges its inputs
and the DB applies the resulting VersionEdit.  SHIELD's DEK rotation rides
on compaction: every file a merge writes gets a fresh DEK from the crypto
provider and every input file's DEK is retired with it (Section 5.2,
"Embedding DEK-Handling Practices").  A job rewrites its inputs, drops them
(FIFO), or -- when nothing at the output level overlaps them and they do
not overlap each other (:meth:`CompactionJob.is_move`, RocksDB's trivial
move) -- moves them down a level in one MANIFEST edit: a moved file keeps
its bytes and its DEK until a later merge consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.env.base import Env
from repro.lsm.envelope import FILE_KIND_SST
from repro.lsm.filecrypto import CryptoProvider
from repro.lsm.filename import sst_path
from repro.lsm.options import (
    COMPACTION_FIFO,
    COMPACTION_LAZY_LEVELED,
    COMPACTION_LEVELED,
    COMPACTION_UNIVERSAL,
    Options,
)
from repro.lsm.sst import SSTBuilder, SSTFileInfo, merge_tables
from repro.lsm.tables import TableSet
from repro.lsm.version import FileMetadata, Version
from repro.util.clock import RealClock


@dataclass
class CompactionJob:
    """A unit of background compaction work.

    ``inputs`` maps level -> files consumed.  ``output_level`` is where
    merged files land.  ``delete_only`` marks FIFO expiry (no merging).
    """

    inputs: dict[int, list[FileMetadata]] = field(default_factory=dict)
    output_level: int = 0
    delete_only: bool = False
    bottommost: bool = False

    def input_files(self) -> list[tuple[int, FileMetadata]]:
        return [
            (level, meta)
            for level, files in sorted(self.inputs.items())
            for meta in files
        ]

    def input_numbers(self) -> set[int]:
        return {meta.number for __, meta in self.input_files()}

    def total_input_bytes(self) -> int:
        return sum(meta.size for __, meta in self.input_files())

    def is_move(self) -> bool:
        """Whether the inputs can go down unread: one input level above a
        leveled output level (so nothing there overlaps them), and no two
        inputs overlap each other (L0 files may)."""
        if self.delete_only or self.output_level < 1 or len(self.inputs) != 1:
            return False
        [(level, files)] = self.inputs.items()
        ordered = sorted(files, key=lambda meta: meta.smallest)
        return level != self.output_level and all(
            left.largest < right.smallest for left, right in zip(ordered, ordered[1:])
        )


def level_target(options: Options, level: int) -> int:
    """Leveled byte target of ``level`` >= 1: base * fanout ** (level - 1)."""
    return options.max_bytes_for_level_base * options.fanout ** (level - 1)


def live_files(files: list[FileMetadata], compacting: set[int]) -> list[FileMetadata]:
    """The files no in-flight job holds."""
    return [meta for meta in files if meta.number not in compacting]


def _any_busy(files: list[FileMetadata], compacting: set[int]) -> bool:
    return any(meta.number in compacting for meta in files)


def _fired(score: float, strictly: bool = False) -> float | None:
    """``score`` once it reaches 1 (passes 1, ``strictly``), else None."""
    return score if score > 1.0 or (score == 1.0 and not strictly) else None


def worst_level(
    options: Options, version: Version, compacting: set[int]
) -> tuple[float | None, int]:
    """(score, level) of the first L1+ level furthest over its target by
    live bytes, (None, 0) if none is over.  The last level has no target."""
    scores = [
        (sum(m.size for m in live_files(version.levels[level], compacting))
         / level_target(options, level), level)
        for level in range(1, len(version.levels) - 1)
    ]
    score, level = max(scores, key=lambda item: item[0], default=(0.0, 0))
    return _fired(score, strictly=True), level


def _span(files: list[FileMetadata]) -> tuple[bytes, bytes]:
    return min(m.smallest for m in files), max(m.largest for m in files)


def build_leveled_job(
    version: Version,
    level: int,
    base_files: list[FileMetadata],
    compacting: set[int] = frozenset(),
) -> CompactionJob | None:
    """Assemble a leveled job: base files plus output-level overlap."""
    if not base_files:
        return None
    output_level = level + 1
    overlap = version.overlapping_files(output_level, *_span(base_files))
    # Never drop a busy overlapping file from the input set -- that would
    # produce overlapping files at the output level.  Wait instead.
    if _any_busy(overlap, compacting):
        return None
    inputs = {level: base_files}
    if overlap:
        inputs[output_level] = overlap
    # Tombstones drop only where no level below holds any of the job's keys.
    begin, end = _span(base_files + overlap)
    return CompactionJob(
        inputs=inputs,
        output_level=output_level,
        bottommost=not any(
            version.overlapping_files(below, begin, end)
            for below in range(output_level + 1, len(version.levels))
        ),
    )


def leveled_job(
    version: Version, level: int, compacting: set[int]
) -> CompactionJob | None:
    """RocksDB-style leveled: every L0 file, or a deeper level's oldest
    live file (RocksDB's compaction cursor, roughly), merges one level
    down with its overlap there.  None when an in-flight job blocks it."""
    if level == 0:
        # L0 files may overlap each other; an in-flight job holding any
        # of them forces a wait, or outputs would overlap its outputs.
        if _any_busy(version.levels[0], compacting):
            return None
        base_files = list(version.levels[0])
    else:
        candidates = live_files(version.levels[level], compacting)
        if not candidates:
            return None
        base_files = [min(candidates, key=lambda m: m.number)]
    return build_leveled_job(version, level, base_files, compacting)


def tiered_job(
    options: Options, version: Version, compacting: set[int]
) -> CompactionJob | None:
    """Universal/tiered: L0's sorted runs merge into one bigger run -- all
    of them, or with a ``universal_size_ratio`` RocksDB's window: from the
    newest run (a middle window would reorder run recency), take each older
    run no larger than ``(100 + ratio)%`` of the window's bytes; too few
    for ``min_merge_width``, take just enough newest runs to meet the cap."""
    runs = version.levels[0]
    if _any_busy(runs, compacting):
        return None  # overlapping-output hazard: wait for the running job
    width = options.universal_min_merge_width
    if len(runs) < width:
        return None
    ratio = options.universal_size_ratio
    window = list(runs)
    if ratio is not None:
        window, accumulated = [runs[0]], runs[0].size
        for run in runs[1:]:
            if run.size * 100 > accumulated * (100 + ratio):
                break
            window.append(run)
            accumulated += run.size
        if len(window) < width:
            needed = len(runs) - options.universal_max_sorted_runs + 1
            window = runs[: max(needed, width)]
    if len(window) < 2:
        return None  # a single-run "merge" would spin forever
    return CompactionJob(
        inputs={0: window},
        output_level=0,
        bottommost=len(window) == len(runs) and not any(version.levels[1:]),
    )


def fifo_drop(files: list[FileMetadata]) -> CompactionJob | None:
    """FIFO: drop ``files`` from L0, no merging (None when there are none)."""
    if not files:
        return None
    return CompactionJob(inputs={0: files}, output_level=0, delete_only=True)


#: One rule: its score (None: no work of this kind now) and its job builder.
Rule = tuple[float | None, Callable[[], CompactionJob | None]]


class Picker:
    """A compaction policy: ``pick`` builds the job of the most urgent fired
    rule (highest score; rule order breaks ties), or of the next-best one
    while an in-flight job blocks it; None means the tree is in shape."""

    #: A full merge lands at a leveled tree's bottom, else in L0.
    full_merge_to_bottom = False

    def __init__(self, options: Options):
        self.options = options

    def rules(self, version: Version, compacting: set[int]) -> list[Rule]:
        raise NotImplementedError

    def pick(self, version: Version, compacting: set[int]) -> CompactionJob | None:
        fired = [
            (-score, order, build)
            for order, (score, build) in enumerate(self.rules(version, compacting))
            if score is not None
        ]
        for __, ___, build in sorted(fired, key=lambda rule: rule[:2]):
            job = build()
            if job is not None:
                return job
        return None

    def full_merge(self, version: Version) -> CompactionJob | None:
        """Every live file merged into one run, whatever the rules say
        (``DB.force_compaction``); None on an empty tree."""
        inputs = {
            level: list(files) for level, files in enumerate(version.levels) if files
        }
        if not inputs:
            return None
        output_level = self.options.num_levels - 1 if self.full_merge_to_bottom else 0
        return CompactionJob(inputs=inputs, output_level=output_level, bottommost=True)


def _run_count_score(options: Options, version: Version) -> float | None:
    """Tiered: every L0 run, busy or not, counts against the run cap."""
    runs = len(version.levels[0])
    return _fired(runs / options.universal_max_sorted_runs, strictly=True)


class LeveledPicker(Picker):
    """RocksDB-style leveled compaction: L0 count score, size scores above."""

    full_merge_to_bottom = True

    def rules(self, version, compacting):
        l0 = len(live_files(version.levels[0], compacting))
        score, level = worst_level(self.options, version, compacting)
        return [
            (_fired(l0 / self.options.level0_file_num_compaction_trigger),
             lambda: leveled_job(version, 0, compacting)),
            (score, lambda: leveled_job(version, level, compacting)),
        ]


class UniversalPicker(Picker):
    """Tiered compaction: every file is a sorted run in level 0; when the
    run count exceeds the threshold, runs merge (fewer, larger I/Os -- the
    contrast the paper draws against leveled)."""

    def rules(self, version, compacting):
        return [
            (_run_count_score(self.options, version),
             lambda: tiered_job(self.options, version, compacting)),
        ]


class LazyLeveledPicker(Picker):
    """Lazy-leveling (Dostoevsky's hybrid): tier the write-hot upper area,
    level the read-hot bottom.  L0 accumulates sorted runs and merges them
    tiered while small; once L0's bytes outgrow the L1 byte budget every
    run spills into L1 (with its overlap there), and L1+ obeys leveled
    size scores.  Cheaper writes than leveled, cheaper reads than tiered."""

    full_merge_to_bottom = True

    def rules(self, version, compacting):
        options = self.options
        score, level = worst_level(options, version, compacting)
        return [
            (_fired(version.level_size(0) / options.max_bytes_for_level_base),
             lambda: leveled_job(version, 0, compacting)),
            (_run_count_score(options, version),
             lambda: tiered_job(options, version, compacting)),
            (score, lambda: leveled_job(version, level, compacting)),
        ]


class FIFOPicker(Picker):
    """FIFO: never merge; drop files older than ``fifo_ttl_seconds`` (when
    set), and the oldest while the total exceeds the size cap.  Reads of
    dropped keys fail by design, as the paper's Figure 15 notes."""

    def rules(self, version, compacting):
        files = live_files(version.levels[0], compacting)
        ttl, expired = self.options.fifo_ttl_seconds, []
        if ttl > 0:  # the one picker that reads the clock
            now = (self.options.clock or RealClock()).now()
            expired = [m for m in files if m.created_at and now - m.created_at > ttl]
        cap = self.options.fifo_max_table_files_size
        total = sum(meta.size for meta in files)
        return [
            (math.inf if expired else None, lambda: fifo_drop(expired)),
            (_fired(total / cap, strictly=True),
             lambda: fifo_drop(_oldest_over(files, total - cap))),
        ]


def _oldest_over(files: list[FileMetadata], excess: int) -> list[FileMetadata]:
    """The oldest files that together hold at least ``excess`` bytes."""
    doomed: list[FileMetadata] = []
    for meta in sorted(files, key=lambda m: m.number):
        if excess <= 0:
            break
        doomed.append(meta)
        excess -= meta.size
    return doomed


_PICKERS = {
    COMPACTION_LEVELED: LeveledPicker,
    COMPACTION_UNIVERSAL: UniversalPicker,
    COMPACTION_LAZY_LEVELED: LazyLeveledPicker,
    COMPACTION_FIFO: FIFOPicker,
}


def make_picker(options: Options) -> Picker:
    """Build the picker for the options' configured compaction style."""
    if options.compaction_style not in _PICKERS:
        raise ValueError(f"unknown compaction style {options.compaction_style}")
    return _PICKERS[options.compaction_style](options)


@dataclass(eq=False)
class MergeExecutor:
    """Runs a merge job: the one body under local and offloaded compaction.

    Inputs are read through a table set -- the one given (the DB's own, its
    readers already open) or one built for the job over this executor's env
    and provider, which is how a worker on another server resolves every
    input's DEK under its own identity (Section 5.6).  A job leaves all its
    outputs or nothing: on any failure the outputs already finished are
    deleted and every DEK granted, the unfinished output's too, is retired
    before the error goes on."""

    env: Env
    provider: CryptoProvider
    options: Options
    tables: TableSet | None = field(default=None, kw_only=True)

    def merge(
        self,
        directory: str,
        job: CompactionJob,
        target_file_size: int,
        allocate_number: Callable[[], int],
    ) -> list[tuple[int, SSTFileInfo]]:
        """(file number, info) per output SST written to ``directory``;
        ``allocate_number`` is the owning DB's, so numbers stay unique."""
        tables = self.tables or TableSet(
            self.env, directory, self.provider, self.options
        )
        begun: list[tuple[str, str]] = []  # (path, DEK-ID) per output opened

        def open_output() -> tuple[int, SSTBuilder]:
            number = allocate_number()
            path = sst_path(directory, number)
            crypto = self.provider.for_new_file(FILE_KIND_SST, path)
            begun.append((path, crypto.dek_id))
            return number, SSTBuilder(self.env, path, crypto, self.options)

        try:
            return merge_tables(
                [
                    tables.reader(meta).raw_entries()
                    for __, meta in job.input_files()
                ],
                open_output,
                keep_tombstones=not job.bottommost,
                # Split at the target size only when merging *into* a leveled
                # area.  A tiered merge at L0 must emit a single file: each L0
                # file is one sorted run, and splitting would mint extra runs
                # out of thin air.  Per job, not per style: lazy-leveling's L0
                # tier merges and L1+ spills differ.
                split_size=target_file_size if job.output_level >= 1 else None,
            )
        except BaseException:
            for path, dek_id in begun:
                self.env.delete_file(path)
                self.provider.on_file_deleted(dek_id, path)
            raise
        finally:
            if tables is not self.tables:
                tables.close()
