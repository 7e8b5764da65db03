"""The LSM-KVS database: write path, read path, recovery, and background work.

The structure mirrors Figure 1 of the paper:

- writes append a framed record to the WAL (encryption granularity decided
  by ``Options.wal_buffer_size``), then land in the active memtable;
- a full memtable becomes immutable and a background *flush* persists it as
  a level-0 SST file -- the newest version of each key, left decoded in the
  block cache when readers are using it -- after which its WAL is deleted
  (and, under SHIELD, its DEK retired);
- background *compaction* (by the picker ``compaction_style`` names) merges
  SST files; every output file gets fresh crypto from the provider, which is
  how DEK rotation falls out of compaction for free (Section 5.2).  A job
  whose inputs overlap nothing below moves them down in one MANIFEST edit
  instead, bytes and DEKs unchanged (RocksDB's trivial move).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Collection

from repro.env.base import Env
from repro.env.mem import MemEnv
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    CorruptionError,
    InvalidArgumentError,
    IOError_,
    KeyManagementError,
    ReproError,
)
from repro.lsm.compaction import CompactionJob, MergeExecutor, make_picker
from repro.lsm.envelope import FILE_KIND_SST, FILE_KIND_WAL, envelope_dek_id
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.filename import current_path, sst_path, wal_path
from repro.lsm.memtable import Memtable
from repro.lsm.options import Options, ReadOptions, WriteOptions
from repro.lsm.sst import SSTBuilder, SSTFileInfo
from repro.lsm.tables import Attribution, ReadView, Snapshot, TableSet
from repro.lsm.version import FileMetadata, Version, VersionEdit, recover_store
from repro.lsm.wal import WALWriter
from repro.lsm.write_batch import WriteBatch
from repro.obs import costs
from repro.obs.signals import SignalEngine
from repro.obs.trace import TRACER
from repro.util.clock import RealClock
from repro.util.lru import LRUCache
from repro.util.stats import StatsRegistry
from repro.util.syncpoint import SYNC

MAX_IMMUTABLE_MEMTABLES = 2
_DEFAULT_WRITE_OPTIONS = WriteOptions()  # never mutated: shared by every call

#: ``DB.get_property`` names of ``DB.stats_snapshot`` gauges.
_PROPERTIES = {
    "repro.total-sst-size": "db.total_sst_bytes",
    "repro.num-live-files": "db.live_files",
    "repro.last-sequence": "db.last_sequence",
    "repro.immutable-memtables": "db.immutable_memtables",
    "repro.block-cache-usage": "db.block_cache.usage_bytes",
}

#: Engine health states (see :meth:`DB.health`).
HEALTH_HEALTHY = "healthy"
HEALTH_DEGRADED = "degraded"
HEALTH_FAILED = "failed"


def _is_transient_bg_error(exc: BaseException) -> bool:
    """Whether a background error can clear once its cause heals.

    I/O blips and key-management outages (a flush that could not reach the
    KDS) are transient: the data that failed to persist is still in the
    memtable/WAL, so retrying the job after the env or KDS heals completes
    it.  Anything else -- corruption, authorization revocation, logic
    errors -- is final.
    """
    if isinstance(exc, AuthorizationError):
        return False
    return isinstance(exc, (IOError_, KeyManagementError))

# Crash-matrix sync points (see util/syncpoint.py): each marks a boundary
# where a kill must leave a recoverable database.
SP_FLUSH_BEFORE_SST = SYNC.declare(
    "flush:before_sst_write", "memtable chosen, no SST bytes written yet"
)
SP_FLUSH_AFTER_SST = SYNC.declare(
    "flush:after_sst_write", "SST durable, manifest edit not yet applied"
)
SP_FLUSH_AFTER_MANIFEST = SYNC.declare(
    "flush:after_manifest_apply", "flush installed, old WAL not yet deleted"
)
SP_COMPACT_AFTER_OUTPUTS = SYNC.declare(
    "compaction:after_outputs", "outputs durable, manifest edit not applied"
)
SP_COMPACT_AFTER_MANIFEST = SYNC.declare(
    "compaction:after_manifest_apply", "inputs dead but not yet deleted"
)
SP_WAL_BEFORE_ROTATE = SYNC.declare(
    "wal:before_rotate", "memtable full, old WAL still the active log"
)
SP_WAL_BEFORE_ANCHOR = SYNC.declare(
    "wal:before_anchor", "fresh WAL open, the MANIFEST does not name it yet"
)
SP_WAL_AFTER_ROTATE = SYNC.declare(
    "wal:after_rotate", "fresh WAL named, the switch not yet announced"
)


class _WriteRequest:
    """A queued write awaiting group commit."""

    __slots__ = ("batch", "opts", "done", "error")

    def __init__(self, batch: WriteBatch, opts: WriteOptions):
        self.batch = batch
        self.opts = opts
        self.done = False
        self.error: BaseException | None = None


class DB:
    """An embedded LSM key-value store (RocksDB-like API surface)."""

    def __init__(self, path: str, options: Options | None = None):
        self.options = options or Options()
        self.options.validate()
        self.path = path
        self.env: Env = self.options.env if self.options.env is not None else MemEnv()
        self.provider: CryptoProvider = (
            self.options.crypto_provider
            if self.options.crypto_provider is not None
            else PlaintextCryptoProvider()
        )
        self.stats = StatsRegistry()
        self._gets = self.stats.counter("db.gets")
        self._sst_probes = self.stats.counter("db.get_sst_probes")
        # The commit's metrics are written under the mutex: owned shards.
        self._writes = self.stats.counter("db.writes").owned()
        self._user_write_bytes = self.stats.counter("db.user_write_bytes").owned()
        self._write_groups = self.stats.counter("db.write_groups").owned()
        self._group_size = self.stats.histogram("db.group_size")
        self._group_size_shard = self._group_size.owned()
        # Registered at open, so every stats export names them.
        self._flush_shadowed = self.stats.counter("db.flush_shadowed")
        self.stats.counter("db.flush_cached_blocks")
        # Always-on breakdown for background work: flush/compaction threads
        # attribute their encryption/KDS/IO seconds here, feeding the
        # encryption-cost-per-byte signal without any bench harness active.
        self._bg_costs = costs.CostBreakdown()

        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        self._write_lock = threading.Lock()
        # Its own lock, not the engine mutex, which a leader holds through
        # its WAL write: writers arriving meanwhile queue up as its group's
        # successor instead of waiting to queue.
        self._queue_lock = threading.Lock()
        self._write_queue: list[_WriteRequest] = []
        self._closed = False
        self._bg_error: BaseException | None = None
        self._commit_listeners: list = []

        self._mem: Memtable = Memtable()
        # (memtable, wal_number) awaiting flush, oldest first.
        self._imm: list[tuple[Memtable, int]] = []

        self._block_cache = (
            LRUCache(self.options.block_cache_size)
            if self.options.block_cache_size > 0
            else None
        )
        self._tables = TableSet(
            self.env, path, self.provider, self.options, self._block_cache,
            on_heal=self._announce,
        )
        self._attributing = Attribution(self._tables, self.stats)
        # An element per live read view, by its version: appended under the
        # mutex, popped by a release (one atomic list operation: no lock).
        # Files compactions removed wait in ``_obsolete`` until none names them.
        self._pins: defaultdict[Version, list] = defaultdict(list)
        self._obsolete: list[FileMetadata] = []

        self._clock = self.options.clock or RealClock()
        self.signals = SignalEngine(self)
        self._picker = make_picker(self.options)
        # File numbers claimed by running background work: the WAL of the
        # memtable being flushed, the inputs of each compaction.
        self._busy: set[int] = set()
        self._workers = 0  # background workers running, <= max_background_jobs
        self._executor = ThreadPoolExecutor(
            max_workers=self.options.max_background_jobs,
            thread_name_prefix="lsm-bg",
        )

        self.env.mkdirs(path)
        self._versions, recovered, orphans = recover_store(
            self.env, path, self.provider, self.options, self.stats, writer=True
        )
        self._recover(recovered, orphans)

    def _recover(self, recovered: Memtable, orphans: list[str]) -> None:
        """The writer's tail of ``recover_store``: a fresh MANIFEST still
        naming the replayed WALs, then one edit names a new WAL, installs
        their memtable's flush and drops them; they and the orphans go."""
        versions = self._versions
        versions.create_manifest()
        replayed = versions.current.wals
        self._open_new_wal(versions.new_file_number())
        edit = VersionEdit(
            last_sequence=versions.last_sequence, dropped_wals=list(replayed),
            new_wals=[(self._wal_number, self._wal.dek_id)],
        )
        if len(recovered) > 0:
            # Every version: nothing pins across handles, so a sequence read
            # over a reopen stays exact until the next compaction.
            meta, __ = self._write_sst_from_memtable(recovered, newest_only=False)
            edit.add_file(0, meta)
        versions.log_and_apply(edit)
        for number, wal in replayed.items():
            self._delete_db_file(wal_path(self.path, number), wal.dek_id)
        for path in orphans:
            self._delete_db_file(path, envelope_dek_id(self.env.read_file(path)))
        # The flush above added an L0 file like any other: unannounced, a
        # store reopened up to the stop trigger blocks its first write on a
        # compaction nobody started.
        self._announce()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes, opts: WriteOptions | None = None) -> None:
        self.write(WriteBatch().put(key, value), opts)

    def delete(self, key: bytes, opts: WriteOptions | None = None) -> None:
        self.write(WriteBatch().delete(key), opts)

    def write(self, batch: WriteBatch, opts: WriteOptions | None = None) -> None:
        """Group-commit write path (RocksDB's pipelined writer, simplified).

        A lone writer -- nobody queued, nobody committing -- commits its
        batch inline: a group of one on the same commit body as any group.
        A writer that finds the queue non-empty or the write lock held
        enqueues its batch; the first queued writer to take the lock commits
        *all* queued batches as one group -- one WAL pass (and, with
        encryption, far fewer cipher-context initializations under
        contention), one memtable pass, one sync if any member asked for
        one.  Followers find their request completed when they get the lock
        and return immediately.
        """
        ops = len(batch)
        if ops == 0:
            return
        opts = opts or _DEFAULT_WRITE_OPTIONS
        with TRACER.span("db.write") as span:
            span.set_attribute("ops", ops)
            # The queue is read without its lock: a benign race.  A writer
            # that queues after this read blocks on the write lock, as behind
            # any leader, and is committed by the next holder (at the latest
            # itself); one that queued before it keeps this writer queuing.
            if not self._write_queue and self._write_lock.acquire(False):
                try:
                    with self._mutex:
                        self._commit(((batch, opts),))
                finally:
                    self._write_lock.release()
                return
            request = _WriteRequest(batch, opts)
            with self._queue_lock:
                self._write_queue.append(request)
            with self._write_lock:
                if not request.done:
                    self._commit_group_as_leader()
        if request.error is not None:
            raise request.error

    def _commit_group_as_leader(self) -> None:
        """Commit every queued request (leader holds the write lock)."""
        with self._mutex:
            with self._queue_lock:
                group, self._write_queue = self._write_queue, []
            try:
                self._commit([(request.batch, request.opts) for request in group])
            except BaseException as exc:
                for request in group:
                    request.error = exc
                    request.done = True
                return
            for request in group:
                request.done = True

    def _commit(self, group) -> None:
        """The one commit body (write lock and mutex held): number ``group``,
        its ``(batch, opts)`` pairs in order, log it in one WAL write, then
        insert it into the memtable.  Raises what failed; every member
        shares the outcome."""
        self._check_state()
        if self._maybe_stall_locked():
            self._check_state()  # may have closed/errored meanwhile
        wal_enabled = self.options.wal_enabled
        want_sync = self.options.wal_sync_writes
        sequence = start = self._versions.last_sequence
        payloads = []  # each member's WAL payload, None when it skips the WAL
        unlogged = False
        for batch, opts in group:
            if wal_enabled and not opts.disable_wal:
                payloads.append(batch.serialize(sequence + 1))
                want_sync = want_sync or opts.sync
            else:
                payloads.append(None)
                unlogged = True
            sequence += len(batch)
        self._versions.last_sequence = sequence
        logged = [p for p in payloads if p is not None] if unlogged else payloads
        if logged:
            self._wal.add_records(logged)
        mem, listening = self._mem, bool(self._commit_listeners)
        committed: list[tuple[int, int, bytes]] = []
        total_bytes = 0
        last_seq = start
        for (batch, _), payload in zip(group, payloads):
            first_seq = last_seq + 1
            last_seq = batch.insert_into(mem, first_seq)
            total_bytes += batch.byte_size()
            if listening:
                if payload is None:
                    payload = batch.serialize(first_seq)
                committed.append((first_seq, last_seq, payload))
        if want_sync and wal_enabled:
            self._wal.sync()
            self._versions.anchor.synced(self._wal_number, self._wal.synced)
        if committed:
            self._notify_commit_listeners(committed)
        # Owned shards: the mutex serializes these writes (util/stats.py).
        self._writes.value += sequence - start
        self._user_write_bytes.value += total_bytes
        self._write_groups.value += 1
        self._group_size.record(len(group), self._group_size_shard)
        if mem.approximate_size() >= self.options.write_buffer_size:
            self._switch_memtable_locked()

    # -- WAL-tail hook (the serving tier's replication feed) ---------------

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(first_seq, last_seq, wal_payload)``.

        Called once per committed batch, in commit order, with the exact
        serialized WriteBatch payload the WAL received -- the primitive
        WAL-shipping replication tails.  Listeners run on the committing
        writer's thread under the engine mutex: they must be fast and
        must not call back into the DB.
        """
        with self._mutex:
            self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        with self._mutex:
            if listener in self._commit_listeners:
                self._commit_listeners.remove(listener)

    def _notify_commit_listeners(
        self, committed: list[tuple[int, int, bytes]]
    ) -> None:
        for listener in list(self._commit_listeners):
            for first_seq, last_seq, payload in committed:
                try:
                    listener(first_seq, last_seq, payload)
                except Exception:  # noqa: BLE001 - listeners cannot poison writes
                    self.stats.counter("db.commit_listener_errors").add(1)

    def committed_sequence(self) -> int:
        """The sequence number of the last committed write (0 if none)."""
        with self._mutex:
            return self._versions.last_sequence

    def _check_open(self) -> None:
        if self._closed:
            raise IOError_("database is closed")

    def _check_state(self) -> None:
        """Write-path gate: a background error poisons writes (reads of
        already-durable data remain allowed, as in RocksDB)."""
        self._check_open()
        if self._bg_error is not None:
            raise IOError_(f"background error: {self._bg_error!r}")

    # ------------------------------------------------------------------
    # Health state machine
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The engine's health verdict: healthy / degraded / failed.

        *degraded* means writes are refused (or at risk) for a cause that
        is expected to clear -- a transient background error, or the KDS
        circuit breaker open while durable data stays readable through the
        DEK cache.  *failed* means the condition is final (corruption,
        revoked authorization, closed database).  The serving tier maps
        degraded writes to a retriable DEGRADED response and polls
        :meth:`try_recover` to climb back to healthy.
        """
        with self._mutex:
            closed, bg_error = self._closed, self._bg_error
            quarantined = sorted(self._tables.quarantined)
        key_client = getattr(self.provider, "key_client", None)
        state, reason, error = HEALTH_DEGRADED, "", None
        if closed:
            state, reason = HEALTH_FAILED, "closed"
        # A background error before a quarantine: it is the one that refuses
        # writes, and the one the serving tier's health loop recovers from.
        elif bg_error is not None:
            reason, error = "background-error", repr(bg_error)
            if not _is_transient_bg_error(bg_error):
                state = HEALTH_FAILED
        elif quarantined:
            reason = "quarantined-sst"
            error = f"auth-failed SST files: {quarantined}"
        elif key_client is not None and not key_client.available():
            reason = "kds-unavailable"
        else:
            state = HEALTH_HEALTHY
        return {"state": state, "reason": reason, "error": error}

    def try_recover(self) -> bool:
        """Clear a *transient* background error and restart background work.

        Returns True when the engine is (now) writable: the poisoned state
        was cleared, pending flushes/compactions are derivable again, and the
        next write will tell whether the underlying cause really healed
        (if not, the jobs fail again and the engine re-degrades -- no
        flapping masked, no data dropped).  Returns False for final states.
        """
        with self._mutex:
            if self._closed:
                return False
            exc = self._bg_error
            if exc is None:
                return True
            if not _is_transient_bg_error(exc):
                return False
            self._bg_error = None
            self.stats.counter("db.bg_error_recoveries").add(1)
            self._announce()
        return True

    def _maybe_stall_locked(self) -> bool:
        """Throttle or block the writer while the engine is too far behind.

        Two regimes, mirroring RocksDB: above the *slowdown* trigger every
        write pays a small delay; above the *stop* trigger (or with too many
        immutable memtables) writers block until background work catches up.
        The stop trigger blocks only while a background job is claimed:
        with none, nothing will lower L0 (DESIGN.md §9), and ``_release``
        claims the next job in the same mutex hold as it drops the last.
        Returns whether the mutex was let go (a stall or a penalty), after
        which the engine may have closed or failed.
        """
        stalled_at = None
        # A background error ends the stall: the flush/compaction that
        # would relieve it is dead, so waiting would hang the writer
        # forever -- fail fast instead (the caller re-checks state after
        # stalling) and let try_recover() restart the pipeline.
        while not self._closed and self._bg_error is None and (
            len(self._imm) >= MAX_IMMUTABLE_MEMTABLES
            or self._busy and len(self._versions.current.levels[0])
            >= self.options.level0_stop_writes_trigger
        ):
            if stalled_at is None:
                stalled_at = time.perf_counter()
            self._cond.wait()
        if stalled_at is not None:
            self.stats.histogram("db.stall_seconds").record(
                time.perf_counter() - stalled_at
            )
            return True
        if (
            self.options.slowdown_delay_s > 0
            and len(self._versions.current.levels[0])
            >= self.options.level0_slowdown_writes_trigger
        ):
            self.stats.counter("db.slowdown_writes").add(1)
            # Release the mutex while throttled so background jobs and
            # readers are not blocked by the penalty sleep.
            self._mutex.release()
            try:
                self._clock.sleep(self.options.slowdown_delay_s)
            finally:
                self._mutex.acquire()
            return True
        return False

    def _open_new_wal(self, number: int) -> None:
        path = wal_path(self.path, number)
        crypto = self.provider.for_new_file(FILE_KIND_WAL, path)
        self._wal = WALWriter(
            self.env, path, crypto, buffer_size=self.options.wal_buffer_size
        )
        self._wal_number = number

    def _switch_memtable_locked(self) -> None:
        """The new WAL is provisioned and named, with the old one's synced
        length, before the old one retires: if either fails (a KDS outage),
        the old WAL stays the log and small writes keep riding it."""
        SYNC.process(SP_WAL_BEFORE_ROTATE)
        old_wal, old_number = self._wal, self._wal_number
        self._open_new_wal(self._versions.new_file_number())
        edit = VersionEdit(
            last_sequence=self._versions.last_sequence,
            new_wals=[(self._wal_number, self._wal.dek_id)],
            synced_wals=[(old_number, old_wal.synced)],
        )
        try:
            SYNC.process(SP_WAL_BEFORE_ANCHOR)
            self._versions.log_and_apply(edit)
        except BaseException:
            self._wal.close()
            self._delete_db_file(self._wal.path, self._wal.dek_id)
            self._wal, self._wal_number = old_wal, old_number
            raise
        old_wal.close()
        self._imm.append((self._mem, old_number))
        self._mem = Memtable()
        SYNC.process(SP_WAL_AFTER_ROTATE)
        self._announce()

    # ------------------------------------------------------------------
    # Background work
    # ------------------------------------------------------------------

    def _next_work(self):
        """The next unit of background work, from state alone (mutex held):
        ``(file numbers it claims, job)`` or None.  The job is the immutable
        memtable entry to flush or the ``CompactionJob`` to run.

        Nothing while closed or poisoned: a failed job leaves ``_bg_error``
        behind, so what it was derived from is not derived again until
        ``try_recover()`` clears it.  Memtables MUST flush (and install)
        strictly in creation order: a newer memtable's SST landing in L0
        before an older one's -- with a compaction in between -- would push
        newer sequence numbers into L1 while older data later arrives in L0,
        breaking the invariant the read path's L0-first search relies on.
        So only the oldest is ever a candidate, and not while it is claimed
        (RocksDB installs parallel flush results in order; serializing
        achieves the same guarantee).
        """
        if self._closed or self._bg_error is not None:
            return None
        if self._imm and self._imm[0][1] not in self._busy:
            return {self._imm[0][1]}, self._imm[0]
        job = self._picker.pick(
            self._versions.current, self._busy | self._tables.quarantined
        )
        if job is None:
            return None
        return job.input_numbers(), job

    def _announce(self) -> None:
        """The engine's state changed: wake whoever waits on it, and start a
        worker for each unit of work the new state implies, up to
        ``max_background_jobs`` at once.  Nothing else starts work."""
        with self._mutex:
            self._cond.notify_all()
            while self._workers < self.options.max_background_jobs:
                work = self._next_work()
                if work is None:
                    return
                self._busy |= work[0]  # claimed in the hold that chose it
                self._workers += 1
                self._executor.submit(self._work, *work)

    def _release(self, numbers: set[int]) -> None:
        with self._mutex:
            self._busy -= numbers
            self._announce()

    def _work(self, numbers: set[int], job) -> None:
        """One background worker, one unit of work.  However the job ends,
        the state it was derived from has changed by the time its claim is
        released, so it is never derived again as it was: a finished job
        installed its result; any failure poisons the engine (writes fail
        fast, ``try_recover()`` retries what is transient); a merge over a
        tampered input must not poison it, and does not need to -- the read
        that failed quarantined the file its tag named, the picker refuses
        that file, and ``health()`` reports degraded until repair or a clean
        re-read.  Inputs stay live and readable."""
        try:
            if not isinstance(job, CompactionJob):
                self._flush_job(job)
            elif job.delete_only:  # FIFO expiry: inputs out, nothing in
                self._install(job, [])
                self.stats.counter("db.fifo_expirations").add(len(job.input_files()))
            elif job.is_move():  # nothing below overlaps: relink, read nothing
                moved = [meta for __, meta in job.input_files()]
                with TRACER.span("db.move", attributes={
                    "files": len(moved), "output_level": job.output_level,
                }):
                    self._install(job, moved)
                self.stats.counter("db.trivial_moves").add(len(moved))
            else:
                self._run_merge_compaction(job)
            self._purge()
        except AuthenticationError:
            self.stats.counter("integrity.compaction_auth_aborts").add(1)
        except BaseException as exc:  # noqa: BLE001 - surfaced to writers
            with self._mutex:
                self._bg_error = exc
        finally:
            with self._mutex:
                self._workers -= 1
                self._release(numbers)

    def _write_sst_from_memtable(
        self, mem: Memtable, newest_only: bool = True
    ) -> tuple[FileMetadata, list[bytes]]:
        """Persist a memtable as a level-0 SST file (caller applies edit);
        returns its metadata and its data blocks as they were before sealing.

        With ``newest_only`` the file holds one version per key, the newest,
        tombstone or not (an L0 file is never bottommost).  No reader loses
        an older one: a view that predates the flush -- a snapshot's, a
        cursor's -- pinned this memtable and a version without the file, and
        every later view's sequence covers every entry in it."""
        number = self._new_file_number()
        path = sst_path(self.path, number)
        crypto = self.provider.for_new_file(FILE_KIND_SST, path)
        builder = SSTBuilder(self.env, path, crypto, self.options)
        last = None
        for key, seq, vtype, value in mem.entries():
            if key != last:
                builder.add(key, seq, vtype, value)
                last = key if newest_only else None
        info = builder.finish()
        self._flush_shadowed.add(len(mem) - info.num_entries)
        self.stats.counter("db.flush_bytes").add(info.file_size)
        self.stats.counter("db.flushes").add(1)
        return self._file_metadata(number, info), builder.data_blocks

    def _new_file_number(self) -> int:
        with self._mutex:
            return self._versions.new_file_number()

    def _file_metadata(self, number: int, info: SSTFileInfo) -> FileMetadata:
        return FileMetadata(
            number=number,
            size=info.file_size,
            smallest=info.smallest_key,
            largest=info.largest_key,
            smallest_seq=info.smallest_seq,
            largest_seq=info.largest_seq,
            num_entries=info.num_entries,
            dek_id=info.dek_id,
            created_at=self._clock.now(),
        )

    def _flush_job(self, target: tuple[Memtable, int]) -> None:
        mem, wal_number = target
        with TRACER.span(
            "db.flush_job", attributes={"wal_number": wal_number}
        ) as span:
            SYNC.process(SP_FLUSH_BEFORE_SST)
            with costs.attribute(self._bg_costs, "flush"):
                meta, blocks = self._write_sst_from_memtable(mem)
            SYNC.process(SP_FLUSH_AFTER_SST)
            span.set_attribute("output_bytes", meta.size)
            span.set_attribute("entries", meta.num_entries)
            with self._mutex:
                wal = self._versions.current.wals[wal_number]
                self._versions.log_and_apply(VersionEdit(
                    last_sequence=self._versions.last_sequence,
                    new_files=[(0, meta)], dropped_wals=[wal_number],
                ))
                self._imm.remove(target)
                # Warm only a cache readers are using: an empty one stays
                # empty through a load nothing reads.  The pin, taken in the
                # hold that installed the file, keeps any purge from dropping
                # it (and its reader) until its blocks are in: the purge after
                # this job then takes them out with it.
                warm = self._block_cache is not None and len(self._block_cache) > 0
                if warm:
                    version = self._versions.current
                    self._pins[version].append(None)
                # The next memtable is the oldest now: its flush may start
                # while this one is still deleting its WAL.
                self._announce()
            try:
                SYNC.process(SP_FLUSH_AFTER_MANIFEST)
                if warm:
                    self._warm(meta, blocks)
            finally:
                if warm:
                    self._pins[version].pop()
        self._delete_db_file(wal_path(self.path, wal_number), wal.dek_id)

    def _warm(self, meta: FileMetadata, blocks: list[bytes]) -> None:
        """Cache a flushed file's blocks through its reader, opened as the
        first get would open it, so that get reads, checks and decrypts
        nothing.  Only a flush warms: a compaction's outputs would crowd the
        cache with files no reader asked for.  A warm that fails costs only
        the warm; the first get opens the file again and meets the failure
        itself (a failed tag is still a quarantine mark)."""
        try:
            with self._attributing:
                cached = self._tables.reader(meta).adopt(blocks)
        except ReproError:
            return
        self.stats.counter("db.flush_cached_blocks").add(cached)

    def _install(self, job: CompactionJob, added: list[FileMetadata]) -> None:
        """One MANIFEST edit: the job's inputs out, ``added`` in.  An input
        not among ``added`` is obsolete; a move re-adds every input, so it
        keeps its reader, its cached blocks and its DEK."""
        edit = VersionEdit(
            deleted_files=[(level, meta.number) for level, meta in job.input_files()],
            new_files=[(job.output_level, meta) for meta in added],
        )
        kept = {meta.number for meta in added}
        with self._mutex:
            self._versions.log_and_apply(edit)
            self._obsolete += [
                meta for __, meta in job.input_files() if meta.number not in kept
            ]

    def _run_merge_compaction(self, job: CompactionJob) -> None:
        input_bytes = job.total_input_bytes()
        with TRACER.span(
            "db.compaction",
            attributes={
                "inputs": len(job.input_files()),
                "input_bytes": input_bytes,
                "output_level": job.output_level,
                "offloaded": self.options.compaction_service is not None,
            },
        ) as span:
            with costs.attribute(self._bg_costs, "compaction"):
                outputs = self._merge(job)
            output_bytes = sum(meta.size for meta in outputs)
            span.set_attribute("output_bytes", output_bytes)
            SYNC.process(SP_COMPACT_AFTER_OUTPUTS)
            self._install(job, outputs)
            SYNC.process(SP_COMPACT_AFTER_MANIFEST)
            self.stats.counter("db.compactions").add(1)
            self.stats.counter("db.compaction_bytes_read").add(input_bytes)
            self.stats.counter("db.compaction_bytes_written").add(output_bytes)

    def _merge(self, job: CompactionJob) -> list[FileMetadata]:
        """Run the merge on this server or the offloaded worker: one
        executor body either way, output numbers from this DB's VersionSet."""
        executor = self.options.compaction_service
        if executor is None:
            executor = MergeExecutor(
                self.env, self.provider, self.options, tables=self._tables
            )
        with self._attributing:
            results = executor.merge(
                self.path, job, self.options.target_file_size,
                self._new_file_number,
            )
        return [self._file_metadata(number, info) for number, info in results]

    # ------------------------------------------------------------------
    # File/table management
    # ------------------------------------------------------------------

    def quarantined_files(self) -> list[int]:
        return sorted(self._tables.quarantined)

    def _purge(self) -> None:
        """Evict, unlink and retire the DEK of every obsolete file no view holds.
        Background work runs it, never a read; the next open takes the rest."""
        with self._mutex:  # a release may pop meanwhile: never a new hold
            self._pins = defaultdict(list, {v: n for v, n in self._pins.items() if n})
            held = {
                meta.number for version in self._pins
                for __, meta in version.all_files()
            }
            doomed = [meta for meta in self._obsolete if meta.number not in held]
            self._obsolete = [m for m in self._obsolete if m.number in held]
        for meta in doomed:
            self._tables.drop(meta.number)
            self._delete_db_file(sst_path(self.path, meta.number), meta.dek_id)

    def _delete_db_file(self, path: str, dek_id: str) -> None:
        self.env.delete_file(path)
        self.provider.on_file_deleted(dek_id, path)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _view(self, at: int | None = None) -> ReadView:
        """A read's view, pinned until ``_unpin``: the view of ``at`` if it is
        a live snapshot of this DB, else one captured in this mutex hold."""
        with self._mutex:
            self._check_open()
            view = getattr(at, "view", None)
            if view is None or view.tables is not self._tables:
                memtables = [self._mem]
                if self._imm:
                    memtables += [mem for mem, __ in reversed(self._imm)]
                view = ReadView(
                    memtables, self._versions.current,
                    self._versions.last_sequence if at is None else at,
                    self._tables, self._sst_probes,
                )
            self._pins[view.version].append(None)
        return view

    def _unpin(self, view: ReadView) -> None:
        """Done with ``view``: the next ``_purge`` may take what only it held."""
        self._pins[view.version].pop()

    def _retrying(self, span, opts: ReadOptions | None, read, *args):
        """``read(view, *args)`` on one pinned view, retried after a transient
        device fault (I/O error, bit flip): persistent corruption surfaces."""
        view = self._view(None if opts is None else opts.snapshot)
        try:
            with self._attributing:
                for _attempt in range(8):
                    try:
                        return read(view, *args)
                    except AuthenticationError:
                        # A failed tag is tampering evidence, never a value to
                        # retry toward: fail fast (and quarantine on the way out).
                        raise
                    except (CorruptionError, IOError_):
                        span.incr("retries")
                return read(view, *args)
        finally:
            self._unpin(view)

    def get(self, key: bytes, opts: ReadOptions | None = None) -> bytes | None:
        self._gets.add(1)
        with TRACER.span("db.get") as span:
            value = self._retrying(span, opts, ReadView.get, key)
            span.set_attribute("found", value is not None)
            return value

    def multi_get(
        self, keys: list[bytes], opts: ReadOptions | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched lookups (MultiGet) on one view at one sequence: a batch is
        seen whole or not at all.  Sorted keys share block loads in the cache."""
        ordered = sorted(set(keys))
        with TRACER.span("db.multi_get", attributes={"keys": len(keys)}) as span:
            results = self._retrying(
                span, opts, lambda view: {key: view.get(key) for key in ordered}
            )
        self.stats.counter("db.multigets").add(1)
        return results

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
        opts: ReadOptions | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan: [start, end), the iterator's cursor drained to ``limit``."""
        with TRACER.span("db.scan") as span:
            opened: list[int] = []  # over every attempt

            def drain(view: ReadView):
                sources, pairs = view.scan(start, end, limit, opened)
                return sources, list(pairs)

            sources, results = self._retrying(span, opts, drain)
            span.set_attribute("results", len(results))
            span.set_attribute("sources", sources)
            span.set_attribute("files_opened", len(opened))
        self.stats.counter("db.scans").add(1)
        self.stats.counter("db.scan_sources").add(sources)
        return results

    def delete_range(
        self, start: bytes, end: bytes, opts: WriteOptions | None = None
    ) -> int:
        """Delete every key in [start, end); returns the number deleted.

        Implemented as scan + batched tombstones (no range-tombstone record
        type), which is atomic per batch and adequate at this engine's
        scale.
        """
        doomed = [key for key, __ in self.scan(start, end)]
        batch = WriteBatch()
        for key in doomed:
            batch.delete(key)
        self.write(batch, opts)
        return len(doomed)

    def approximate_size(self, start: bytes = b"", end: bytes | None = None) -> int:
        """Approximate on-storage bytes attributable to [start, end):
        the summed size of every SST file overlapping the range."""
        with self._mutex:
            return sum(
                meta.size
                for __, meta in self._versions.current.all_files()
                if meta.overlaps(start, end)
            )

    def iterator(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        opts: ReadOptions | None = None,
    ):
        """A lazy (key, value) cursor over [start, end) on a view pinned now,
        exact whatever compaction does; a file is opened when reached, as in
        ``scan``.  Exhausted, closed or dropped, it lets the view go."""
        view = self._view(None if opts is None else opts.snapshot)
        with TRACER.span("db.iterator") as span:
            sources, pairs = view.scan(start, end)
            span.set_attribute("sources", sources)

        def cursor():
            try:
                with self._attributing:  # reached lazily, long after this call
                    yield from pairs
            finally:
                release()

        lazy = cursor()
        release = weakref.finalize(lazy, self._unpin, view)  # never started
        return lazy

    def stats_string(self) -> str:
        """A human-readable engine status dump (RocksDB's GetProperty
        'rocksdb.stats' analogue): per-level shape plus headline counters."""
        with self._mutex:
            lines = [f"== DB stats: {self.path} =="]
            lines.append(
                f"{'level':>6s} {'files':>6s} {'bytes':>12s}"
            )
            for level, files in enumerate(self._versions.current.levels):
                if not files and level > 1:
                    continue
                size = sum(meta.size for meta in files)
                lines.append(f"{level:6d} {len(files):6d} {size:12,d}")
            lines.append(
                f"immutable memtables: {len(self._imm)}  "
                f"memtable bytes: {self._mem.approximate_size():,}"
            )
            lines.append(f"last sequence: {self._versions.last_sequence}")
        snap = self.stats.snapshot()
        for name in (
            "db.writes", "db.gets", "db.flushes", "db.compactions",
            "db.trivial_moves", "db.flush_shadowed", "db.flush_cached_blocks",
            "db.compaction_bytes_read", "db.compaction_bytes_written",
            "db.write_groups", "db.slowdown_writes",
        ):
            if name in snap:
                lines.append(f"{name}: {snap[name]:,.0f}")
        if self._block_cache is not None:
            lines.append(
                f"block cache: {self._block_cache.usage:,}B used, "
                f"{self._block_cache.hits} hits / {self._block_cache.misses} misses"
            )
        return "\n".join(lines)

    def stats_snapshot(self) -> dict:
        """The full metrics snapshot plus block-cache and tree-shape gauges.

        This is what the serving tier exports over OP_STATS and what
        ``repro-stats`` renders -- a superset of ``stats.snapshot()``.
        """
        snap = self.stats.snapshot()
        if self._block_cache is not None:
            snap["db.block_cache.hits"] = self._block_cache.hits
            snap["db.block_cache.misses"] = self._block_cache.misses
            snap["db.block_cache.usage_bytes"] = self._block_cache.usage
        with self._mutex:
            snap["db.immutable_memtables"] = len(self._imm)
            snap["db.last_sequence"] = self._versions.last_sequence
            snap["db.live_files"] = self._versions.current.num_files()
            snap["db.total_sst_bytes"] = self._versions.current.total_size()
            snap["integrity.quarantined_files"] = len(self._tables.quarantined)
        return snap

    def obs_dict(self) -> dict:
        """The OP_STATS ``obs`` section: the derived signals since the last
        export (each export advances the delta baseline)."""
        return {"signals": self.signals.sample()}

    def snapshot(self) -> Snapshot:
        """The committed sequence for ``ReadOptions.snapshot``: an ``int`` that
        pins the memtables and files at it, so a read at it is exact across any
        compaction, until ``release()`` or a ``with`` block's end."""
        return Snapshot(self._view(), self._unpin)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush(self, wait: bool = True) -> None:
        """Force the active memtable (and WAL buffer) to persistent SSTs."""
        with self._mutex:
            self._check_state()
            if len(self._mem) > 0:
                self._maybe_stall_locked()
                self._switch_memtable_locked()
            if wait:
                while self._imm and self._bg_error is None and not self._closed:
                    self._cond.wait()
        if self._bg_error is not None:
            raise IOError_(f"background error: {self._bg_error!r}")

    def wait_for_compaction(self) -> None:
        """Block until no background work is running and none is due (none
        is while a background error stands: see ``try_recover``)."""
        with self._mutex:
            # Work can fall due with no state change the engine sees (time
            # passing under a TTL trigger, a caller's edit of ``options``):
            # derive once more, then nothing claimed means nothing due.
            self._announce()
            # A crash may cancel claimed work before it ran: closed ends it.
            while self._busy and not self._closed:
                self._cond.wait()
        self._purge()

    def compact_range(self) -> None:
        """Flush, then drive compaction until the tree is quiescent."""
        self.flush()
        self.wait_for_compaction()

    def force_compaction(self) -> None:
        """Manual major compaction: merge every live SST file into one run.

        Regardless of the picker's rules, all files merge into the one
        level the picker's ``full_merge`` names.  Under SHIELD this rotates
        every SST DEK in one pass -- the operational response the paper
        prescribes for a suspected DEK compromise (Section 5.5).
        """
        self.compact_range()
        with self._mutex:
            job = self._picker.full_merge(self._versions.current)
            if job is None:
                return
            self._busy |= job.input_numbers()
        try:
            self._run_merge_compaction(job)
            self._purge()
        finally:
            self._release(job.input_numbers())

    def copy_file_set(
        self, write: Callable[[str, bytes], None], skip: Collection[int] = ()
    ) -> tuple[list[int], str]:
        """The one copy of an openable store: flush, then ``write(name,
        data)`` every live SST not in ``skip``, the MANIFEST, CURRENT; returns
        (live SST numbers, MANIFEST name): a pinned view's files and the
        MANIFEST of its hold, so none goes mid-copy.  Files keep their
        envelopes (§5.4)."""
        while True:
            self.flush()
            with self._mutex:
                self._check_state()
                if not self._imm:  # else switched since: a synced WAL is named
                    view = self._view()
                    current = self.env.read_file(current_path(self.path))
                    manifest_name = current.decode().strip()
                    manifest = self.env.read_file(f"{self.path}/{manifest_name}")
                    break
        try:
            live = sorted(meta.number for __, meta in view.version.all_files())
            for number in live:
                if number not in skip:
                    name = f"{number:06d}.sst"
                    write(name, self.env.read_file(f"{self.path}/{name}"))
        finally:
            self._unpin(view)
        write(manifest_name, manifest)
        write("CURRENT", current)
        return live, manifest_name

    def checkpoint(self, dest_path: str) -> None:
        """Create an openable, consistent copy of the database at
        ``dest_path`` on the same Env (:meth:`copy_file_set`)."""
        self.env.mkdirs(dest_path)
        self.copy_file_set(
            lambda name, data: self.env.write_file(f"{dest_path}/{name}", data)
        )
        self.stats.counter("db.checkpoints").add(1)

    def get_property(self, name: str):
        """RocksDB-style introspection: ``repro.num-files-at-level<N>``,
        ``repro.stats`` (the full counter snapshot dict), and the
        ``stats_snapshot`` gauges ``_PROPERTIES`` names."""
        if name.startswith("repro.num-files-at-level"):
            return self.num_files_at_level(int(name.rsplit("level", 1)[1]))
        if name == "repro.stats":
            return self.stats.snapshot()
        if name not in _PROPERTIES:
            raise InvalidArgumentError(f"unknown property {name!r}")
        return self.stats_snapshot().get(_PROPERTIES[name], 0)

    @property
    def clock(self):
        """The engine clock (real, scaled, or virtual -- see Options)."""
        return self._clock

    def background_costs(self) -> costs.CostBreakdown:
        """Cumulative cost breakdown of this DB's flush/compaction work."""
        return self._bg_costs

    def num_files_at_level(self, level: int) -> int:
        with self._mutex:
            return len(self._versions.current.levels[level])

    def level_sizes(self) -> list[int]:
        with self._mutex:
            return [
                self._versions.current.level_size(level)
                for level in range(self.options.num_levels)
            ]

    def live_files(self) -> list[tuple[int, FileMetadata]]:
        with self._mutex:
            return self._versions.current.all_files()

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._announce()
        self._executor.shutdown(wait=True)
        with self._mutex:
            self._wal.close()
            self._versions.close()
        self._purge()
        self._tables.close()

    def simulate_crash(self) -> None:
        """Kill the process abruptly: in-flight buffers are abandoned.

        The WAL's application buffer (SHIELD's optimization) is dropped
        un-persisted; the OS keeps whatever was appended.  Reopen the same
        path to exercise recovery; call ``env.crash_system()`` first to also
        lose unsynced OS buffers.
        """
        with self._mutex:
            self._closed = True
            self._announce()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._wal.simulate_process_crash()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
