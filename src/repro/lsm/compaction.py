"""Compaction, decomposed along two design-space axes of Sarkar et al.
("Constructing and Analyzing the LSM Compaction Design Space", VLDB'21):

- **Trigger** -- *when* is compaction needed, and how urgently (level-0
  file count, per-level size scores, sorted-run count, byte budgets,
  FIFO size/TTL caps)?
- **Data layout** -- *which* files form a job and where do outputs land
  (leveled spans with overlap pull-in, tiered run windows, the hybrid
  lazy-leveling shape, FIFO's delete-only drops)?

A picker is a list of (trigger, layout) rules; the classic policies the
paper evaluates (Figure 15) -- leveled, universal (tiered), FIFO -- plus
lazy-leveling are each one configuration of :class:`ComposedPicker`; a DB
runs the one ``Options.compaction_style`` names for its whole life.

A picker inspects a Version and proposes a :class:`CompactionJob`; a
:class:`MergeExecutor` (the DB's or an offloaded worker's) merges its inputs
and the DB applies the resulting VersionEdit.  SHIELD's DEK rotation rides
on compaction: every output file gets a fresh DEK from the crypto provider
and every input file's DEK is retired with it (Section 5.2, "Embedding
DEK-Handling Practices").  A job either rewrites its inputs or (FIFO) drops
them; none relinks a file, so every compaction job retires its inputs' DEKs.
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


@dataclass
class CompactionContext:
    """Everything a picker component may consult for one decision."""

    version: Version
    compacting: set[int]
    options: Options
    now: float = 0.0


def _key_span(files: list[FileMetadata]) -> tuple[bytes, bytes]:
    return (
        min(meta.smallest for meta in files),
        max(meta.largest for meta in files),
    )


def _is_bottommost(version: Version, output_level: int, begin, end) -> bool:
    """True when no level below output_level holds overlapping data -- the
    only situation where tombstones can be dropped."""
    for level in range(output_level + 1, len(version.levels)):
        if version.overlapping_files(level, begin, end):
            return False
    return True


def _expired(ctx: CompactionContext) -> list[FileMetadata]:
    """FIFO: the idle level-0 files older than the TTL (none when off)."""
    ttl = ctx.options.fifo_ttl_seconds
    if ttl <= 0:
        return []
    return [
        meta
        for meta in ctx.version.levels[0]
        if meta.number not in ctx.compacting
        and meta.created_at
        and ctx.now - meta.created_at > ttl
    ]


# ----------------------------------------------------------------------
# Trigger: when does the tree need work, and how urgently?
# ----------------------------------------------------------------------


class Trigger:
    """Scores the tree; ``fire`` returns (score, level) when score >= 1,
    else None.  Higher scores are more urgent; the picker takes the
    highest-scoring rule (first rule wins ties)."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        raise NotImplementedError


class L0CountTrigger(Trigger):
    """Leveled L0: file count against the compaction trigger."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        count = len(
            [m for m in ctx.version.levels[0] if m.number not in ctx.compacting]
        )
        score = count / ctx.options.level0_file_num_compaction_trigger
        return (score, 0) if score >= 1.0 else None


class LevelSizeTrigger(Trigger):
    """Leveled L1+: level size against its geometric target; returns the
    worst level."""

    @staticmethod
    def level_target(options: Options, level: int) -> int:
        base = options.max_bytes_for_level_base
        return base * options.fanout ** (level - 1)

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        best: tuple[float, int] | None = None
        for level in range(1, len(ctx.version.levels) - 1):
            size = sum(
                meta.size
                for meta in ctx.version.levels[level]
                if meta.number not in ctx.compacting
            )
            score = size / self.level_target(ctx.options, level)
            if score > 1.0 and (best is None or score > best[0]):
                best = (score, level)
        return best


class RunCountTrigger(Trigger):
    """Tiered: sorted-run count against the run cap."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        runs = len(ctx.version.levels[0])
        cap = ctx.options.universal_max_sorted_runs
        if runs <= cap:
            return None
        return (runs / cap, 0)


class L0BytesTrigger(Trigger):
    """Lazy-leveling spill: total L0 bytes against the L1 byte budget --
    when the tiered upper area outgrows it, everything spills into the
    leveled bottom."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        total = sum(meta.size for meta in ctx.version.levels[0])
        score = total / ctx.options.max_bytes_for_level_base
        return (score, 0) if score >= 1.0 else None


class FIFOTTLTrigger(Trigger):
    """FIFO expiry: any file older than the TTL fires at maximal urgency."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        return (math.inf, 0) if _expired(ctx) else None


class FIFOSizeTrigger(Trigger):
    """FIFO retention: total size against the table-files cap."""

    def fire(self, ctx: CompactionContext) -> tuple[float, int] | None:
        total = sum(
            meta.size
            for meta in ctx.version.levels[0]
            if meta.number not in ctx.compacting
        )
        score = total / ctx.options.fifo_max_table_files_size
        return (score, 0) if score > 1.0 else None


# ----------------------------------------------------------------------
# Data layout: which files form the job, and where do outputs land?
# ----------------------------------------------------------------------


class Layout:
    """Builds a job for the triggered level, or None if blocked (e.g. an
    in-flight compaction holds a file the job must include)."""

    def build(self, ctx: CompactionContext, level: int) -> CompactionJob | None:
        raise NotImplementedError


class LeveledLayout(Layout):
    """RocksDB-style leveled: base files merge one level down, pulling in
    every overlapping file at the output level."""

    def build(self, ctx, level):
        version, compacting = ctx.version, ctx.compacting
        if level == 0:
            # L0 files may overlap each other; an in-flight job holding any
            # of them forces a wait, or outputs would overlap its outputs.
            if any(meta.number in compacting for meta in version.levels[0]):
                return None
            base_files = list(version.levels[0])
        else:
            candidates = [
                meta
                for meta in version.levels[level]
                if meta.number not in compacting
            ]
            if not candidates:
                return None
            # Oldest file first approximates RocksDB's compaction cursor.
            base_files = [min(candidates, key=lambda m: m.number)]
        return build_leveled_job(version, level, base_files, compacting)


class LazySpillLayout(Layout):
    """Lazy-leveling spill: every L0 run merges into the leveled bottom
    area at L1 (with its overlap), emptying the tiered upper area."""

    def build(self, ctx, level):
        version, compacting = ctx.version, ctx.compacting
        if any(meta.number in compacting for meta in version.levels[0]):
            return None
        return build_leveled_job(version, 0, list(version.levels[0]), compacting)


class TieredLayout(Layout):
    """Universal/tiered: sorted runs in L0 merge into one bigger run.

    Two merge policies:

    - ``universal_size_ratio is None`` (default): merge *all* runs.
    - otherwise: RocksDB-style size-ratio merging -- walk runs newest to
      oldest, extending the candidate window while the next (older) run
      is no larger than ``(100 + ratio)%`` of the window's accumulated
      size; merge the window (at least ``min_merge_width`` runs, else
      fall back to enough newest runs to get back under the run cap).
    """

    def build(self, ctx, level):
        version, options = ctx.version, ctx.options
        if any(meta.number in ctx.compacting for meta in version.levels[0]):
            return None  # overlapping-output hazard: wait for the running job
        runs = list(version.levels[0])
        if len(runs) < options.universal_min_merge_width:
            return None
        if options.universal_size_ratio is None:
            window = runs
        else:
            window = self._size_ratio_window(runs, options)
        if len(window) < 2:
            return None  # a single-run "merge" would spin forever
        return CompactionJob(
            inputs={0: window},
            output_level=0,
            bottommost=len(window) == len(version.levels[0])
            and not any(version.levels[1:]),
        )

    def _size_ratio_window(
        self, runs: list[FileMetadata], options: Options
    ) -> list[FileMetadata]:
        # L0 is ordered newest first; candidate windows start at the newest
        # run, matching RocksDB's read-path constraint (merging a middle
        # window would reorder run recency).
        ratio = options.universal_size_ratio
        window = [runs[0]]
        accumulated = runs[0].size
        for run in runs[1:]:
            if run.size * 100 <= accumulated * (100 + ratio):
                window.append(run)
                accumulated += run.size
            else:
                break
        if len(window) >= options.universal_min_merge_width:
            return window
        # Ratio produced no usable window: merge just enough newest runs to
        # bring the run count back to the cap.
        needed = len(runs) - options.universal_max_sorted_runs + 1
        needed = max(needed, options.universal_min_merge_width)
        return runs[:needed]


class FIFOExpiryLayout(Layout):
    """FIFO TTL expiry: every file older than the TTL, no merging."""

    def build(self, ctx, level):
        expired = _expired(ctx)
        if not expired:
            return None
        return CompactionJob(inputs={0: expired}, output_level=0, delete_only=True)


class FIFORetentionLayout(Layout):
    """FIFO size cap: drop the oldest files until back under the cap.
    Reads of dropped keys fail by design (the paper's Figure 15 notes
    exactly this for its FIFO readrandom results)."""

    def build(self, ctx, level):
        files = [
            m for m in ctx.version.levels[0] if m.number not in ctx.compacting
        ]
        cap = ctx.options.fifo_max_table_files_size
        total = sum(meta.size for meta in files)
        doomed: list[FileMetadata] = []
        for meta in sorted(files, key=lambda m: m.number):
            if total <= cap:
                break
            doomed.append(meta)
            total -= meta.size
        if not doomed:
            return None
        return CompactionJob(inputs={0: doomed}, output_level=0, delete_only=True)


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
    begin, end = _key_span(base_files)
    overlap = version.overlapping_files(output_level, begin, end)
    # Never drop a busy overlapping file from the input set -- that would
    # produce overlapping files at the output level.  Wait instead.
    if any(meta.number in compacting for meta in overlap):
        return None
    inputs = {level: base_files}
    if overlap:
        inputs[output_level] = overlap
        begin = min(begin, min(m.smallest for m in overlap))
        end = max(end, max(m.largest for m in overlap))
    return CompactionJob(
        inputs=inputs,
        output_level=output_level,
        bottommost=_is_bottommost(version, output_level, begin, end),
    )


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------


@dataclass
class Rule:
    """One (trigger, layout) lane of a composed picker."""

    trigger: Trigger
    layout: Layout


class ComposedPicker:
    """A compaction policy as a list of (trigger, layout) rules.

    ``pick`` scores every rule's trigger, takes the most urgent (first
    rule wins ties -- rule order encodes priority) and builds the job
    through the rule's layout; None means the tree is in shape.  A blocked
    layout (in-flight conflict) falls through to the next-best rule.
    """

    def __init__(self, options: Options, rules: list[Rule]):
        self.options = options
        self.rules = rules
        self.clock = options.clock or RealClock()

    def pick(self, version: Version, compacting: set[int]) -> CompactionJob | None:
        ctx = CompactionContext(
            version=version,
            compacting=compacting,
            options=self.options,
            now=self.clock.now(),
        )
        scored: list[tuple[float, int, int]] = []  # (score, order, level)
        for order, rule in enumerate(self.rules):
            fired = rule.trigger.fire(ctx)
            if fired is None:
                continue
            score, level = fired
            scored.append((score, order, level))
        # Most urgent first; rule order breaks ties (stable priority).
        scored.sort(key=lambda item: (-item[0], item[1]))
        for __, order, level in scored:
            job = self.rules[order].layout.build(ctx, level)
            if job is not None:
                return job
        return None


class LeveledPicker(ComposedPicker):
    """RocksDB-style leveled compaction: L0 count score, size scores above."""

    def __init__(self, options: Options):
        super().__init__(
            options,
            rules=[
                Rule(L0CountTrigger(), LeveledLayout()),
                Rule(LevelSizeTrigger(), LeveledLayout()),
            ],
        )


class UniversalPicker(ComposedPicker):
    """Tiered compaction: every file is a sorted run in level 0; when the
    run count exceeds the threshold, runs merge (fewer, larger I/Os -- the
    contrast the paper draws against leveled)."""

    def __init__(self, options: Options):
        super().__init__(options, rules=[Rule(RunCountTrigger(), TieredLayout())])


class LazyLeveledPicker(ComposedPicker):
    """Lazy-leveling (Dostoevsky's hybrid): tier the write-hot upper area,
    level the read-hot bottom.  L0 accumulates sorted runs and merges them
    tiered while small; once L0 outgrows the L1 byte budget everything
    spills into the leveled bottom, which then obeys leveled size scores.
    Cheaper writes than leveled, cheaper reads than tiered -- the natural
    resting state for mixed workloads."""

    def __init__(self, options: Options):
        super().__init__(
            options,
            rules=[
                Rule(L0BytesTrigger(), LazySpillLayout()),
                Rule(RunCountTrigger(), TieredLayout()),
                Rule(LevelSizeTrigger(), LeveledLayout()),
            ],
        )


class FIFOPicker(ComposedPicker):
    """FIFO: never merge; drop the oldest files once total size exceeds the
    cap, and (with ``fifo_ttl_seconds``) files older than the TTL."""

    def __init__(self, options: Options):
        super().__init__(
            options,
            rules=[
                Rule(FIFOTTLTrigger(), FIFOExpiryLayout()),
                Rule(FIFOSizeTrigger(), FIFORetentionLayout()),
            ],
        )


def make_picker(options: Options) -> ComposedPicker:
    """Build the picker for the options' configured compaction style."""
    style = options.compaction_style
    if style == COMPACTION_LEVELED:
        return LeveledPicker(options)
    if style == COMPACTION_UNIVERSAL:
        return UniversalPicker(options)
    if style == COMPACTION_LAZY_LEVELED:
        return LazyLeveledPicker(options)
    if style == COMPACTION_FIFO:
        return FIFOPicker(options)
    raise ValueError(f"unknown compaction style {style}")


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
