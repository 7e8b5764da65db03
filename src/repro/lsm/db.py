"""The LSM-KVS database: write path, read path, recovery, and background work.

The structure mirrors Figure 1 of the paper:

- writes append a framed record to the WAL (encryption granularity decided
  by ``Options.wal_buffer_size``), then land in the active memtable;
- a full memtable becomes immutable and a background *flush* persists it as
  a level-0 SST file, after which its WAL is deleted (and, under SHIELD,
  its DEK retired);
- background *compaction* (leveled / universal / FIFO) merges SST files;
  every output file gets fresh crypto from the provider, which is how DEK
  rotation falls out of compaction for free (Section 5.2).
"""

from __future__ import annotations

import threading
import time
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
    NotFoundError,
)
from repro.lsm.compaction import CompactionJob, MergeExecutor
from repro.lsm.dbformat import MAX_SEQUENCE
from repro.lsm.envelope import MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filecrypto import CryptoProvider, PlaintextCryptoProvider
from repro.lsm.envelope import FILE_KIND_SST, FILE_KIND_WAL
from repro.lsm.filename import (
    current_path,
    parse_file_name,
    sst_path,
    wal_path,
)
from repro.lsm.iterator import scan_runs
from repro.lsm.memtable import Memtable
from repro.lsm.options import Options, ReadOptions, WriteOptions
from repro.lsm.sst import SSTBuilder, SSTFileInfo
from repro.lsm.tables import Attribution, TableSet, lookup
from repro.lsm.version import FileMetadata, VersionEdit, recover_store
from repro.lsm.wal import WALWriter
from repro.lsm.write_batch import WriteBatch
from repro.obs import controller, costs
from repro.obs.trace import TRACER
from repro.util.lru import LRUCache
from repro.util.stats import StatsRegistry
from repro.util.syncpoint import SYNC

MAX_IMMUTABLE_MEMTABLES = 2

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
SP_WAL_AFTER_ROTATE = SYNC.declare(
    "wal:after_rotate", "fresh WAL open, the switch not yet announced"
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
        self._writes = self.stats.counter("db.writes")
        self._user_write_bytes = self.stats.counter("db.user_write_bytes")
        self._write_groups = self.stats.counter("db.write_groups")
        self._group_size = self.stats.histogram("db.group_size")
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
        # (memtable, wal_number, wal_dek_id) awaiting flush, oldest first.
        self._imm: list[tuple[Memtable, int, str]] = []
        self._wal: WALWriter | None = None
        self._wal_number = 0
        self._wal_dek_id = ""

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

        from repro.util.clock import RealClock

        self._clock = self.options.clock or RealClock()
        from repro.obs.signals import SignalEngine

        self.signals = SignalEngine(self)
        #: The compaction policy in force: ``picker`` and ``offload``.
        self.policy = controller.PolicyInForce(self, self._announce)
        # File numbers claimed by running background work: the WAL of the
        # memtable being flushed, the inputs of each compaction.
        self._busy: set[int] = set()
        self._workers = 0  # background workers running, <= max_background_jobs
        self._executor = ThreadPoolExecutor(
            max_workers=self.options.max_background_jobs,
            thread_name_prefix="lsm-bg",
        )

        self.env.mkdirs(path)
        self._versions, recovered, old_wals = recover_store(
            self.env, path, self.provider, self.options, self.stats, writer=True
        )
        self._recover(recovered, old_wals)

    # ------------------------------------------------------------------
    # Recovery / open
    # ------------------------------------------------------------------

    def _recover(self, recovered: Memtable, old_wals: list[str]) -> None:
        """The writer's tail of ``recover_store``: a new MANIFEST and WAL, the
        replayed memtable flushed, the replayed WALs and crash orphans gone."""
        new_log = self._versions.new_file_number()
        if len(recovered) == 0:
            # Otherwise the replayed WALs stay the log until the flush below
            # is installed: a kill before it must replay them again.
            self._versions.log_number = new_log
        self._versions.create_manifest()
        self._open_new_wal(new_log)

        if len(recovered) > 0:
            info = self._write_sst_from_memtable(recovered)
            edit = VersionEdit(
                log_number=new_log, last_sequence=self._versions.last_sequence
            )
            edit.add_file(0, info)
            self._versions.log_and_apply(edit)

        for path in old_wals:
            self._delete_db_file(path)
        self._garbage_collect_orphans()
        # The flush above added an L0 file like any other: unannounced, a
        # store reopened up to the stop trigger blocks its first write on a
        # compaction nobody started.
        self._announce()

    def _garbage_collect_orphans(self) -> None:
        """Remove files left behind by a crash.

        Three kinds of orphans: SSTs never linked into the version (a
        crash mid-flush/compaction), WALs older than the recorded log
        number (a crash after the MANIFEST recorded their contents but
        before their deletion), and MANIFESTs that CURRENT no longer
        names (a crash between the CURRENT swap and the old manifest's
        deletion).  All are invisible to reads; leaving them behind
        strands their DEKs forever.
        """
        live = {
            meta.number for __, meta in self._versions.current.all_files()
        }
        for name in self.env.list_dir(self.path):
            parsed = parse_file_name(name)
            if not parsed:
                continue
            kind, number = parsed[0], parsed[1]
            if kind == "sst" and number not in live:
                self._delete_db_file(f"{self.path}/{name}")
            elif kind == "wal" and number < self._versions.log_number:
                self._delete_db_file(f"{self.path}/{name}")
            elif kind == "manifest" and number != self._versions.manifest_number:
                self._delete_db_file(f"{self.path}/{name}")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, key: bytes, value: bytes, opts: WriteOptions | None = None) -> None:
        batch = WriteBatch()
        batch.put(key, value)
        self.write(batch, opts)

    def delete(self, key: bytes, opts: WriteOptions | None = None) -> None:
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch, opts)

    def write(self, batch: WriteBatch, opts: WriteOptions | None = None) -> None:
        """Group-commit write path (RocksDB's pipelined writer, simplified).

        Every writer enqueues its batch; the first writer to take the
        leader lock commits *all* queued batches as one group -- one WAL
        pass (and, with encryption, far fewer cipher-context
        initializations under contention), one memtable pass, one sync if
        any member asked for one.  Followers find their request completed
        when they get the lock and return immediately.
        """
        if len(batch) == 0:
            return
        opts = opts or WriteOptions()
        request = _WriteRequest(batch, opts)
        with TRACER.span("db.write", attributes={"ops": len(batch)}):
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
            if not group:
                return
            try:
                self._check_state()
                self._maybe_stall_locked()
                self._check_state()  # may have closed/errored while stalled
            except BaseException as exc:
                for request in group:
                    request.error = exc
                    request.done = True
                return

            try:
                total_ops = 0
                total_bytes = 0
                want_sync = self.options.wal_sync_writes
                committed: list[tuple[int, int, bytes]] = []
                members = []  # (request, first sequence, WAL payload or None)
                for request in group:
                    first_seq = self._versions.last_sequence + 1
                    self._versions.last_sequence += len(request.batch)
                    payload = None
                    if self.options.wal_enabled and not request.opts.disable_wal:
                        payload = request.batch.serialize(first_seq)
                        want_sync = want_sync or request.opts.sync
                    members.append((request, first_seq, payload))
                logged = [payload for *__, payload in members if payload is not None]
                if logged:
                    self._wal.add_records(logged)  # the group's one WAL write
                for request, first_seq, payload in members:
                    last_seq = request.batch.insert_into(self._mem, first_seq)
                    total_ops += len(request.batch)
                    total_bytes += request.batch.byte_size()
                    if self._commit_listeners:
                        if payload is None:
                            payload = request.batch.serialize(first_seq)
                        committed.append((first_seq, last_seq, payload))
                if want_sync and self.options.wal_enabled:
                    self._wal.sync()
                self._notify_commit_listeners(committed)
                self._writes.add(total_ops)
                self._user_write_bytes.add(total_bytes)
                self._write_groups.add(1)
                self._group_size.record(len(group))
                if self._mem.approximate_size() >= self.options.write_buffer_size:
                    self._switch_memtable_locked()
            except BaseException as exc:
                for request in group:
                    request.error = exc
                    request.done = True
                return
            for request in group:
                request.done = True

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
        if not committed or not self._commit_listeners:
            return
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
            closed = self._closed
            bg_error = self._bg_error
            quarantined = sorted(self._tables.quarantined)
        if closed:
            return {"state": HEALTH_FAILED, "reason": "closed", "error": None}
        # A background error before a quarantine: it is the one that refuses
        # writes, and the one the serving tier's health loop recovers from.
        if bg_error is not None:
            state = (
                HEALTH_DEGRADED
                if _is_transient_bg_error(bg_error)
                else HEALTH_FAILED
            )
            return {
                "state": state,
                "reason": "background-error",
                "error": repr(bg_error),
            }
        if quarantined:
            return {
                "state": HEALTH_DEGRADED,
                "reason": "quarantined-sst",
                "error": f"auth-failed SST files: {quarantined}",
            }
        key_client = getattr(self.provider, "key_client", None)
        if key_client is not None and not key_client.available():
            return {
                "state": HEALTH_DEGRADED,
                "reason": "kds-unavailable",
                "error": None,
            }
        return {"state": HEALTH_HEALTHY, "reason": "", "error": None}

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

    def _maybe_stall_locked(self) -> None:
        """Throttle or block the writer while the engine is too far behind.

        Two regimes, mirroring RocksDB: above the *slowdown* trigger every
        write pays a small delay; above the *stop* trigger (or with too many
        immutable memtables) writers block until background work catches up.
        """
        stalled_at = None
        # A background error ends the stall: the flush/compaction that
        # would relieve it is dead, so waiting would hang the writer
        # forever -- fail fast instead (the caller re-checks state after
        # stalling) and let try_recover() restart the pipeline.
        while not self._closed and self._bg_error is None and (
            len(self._imm) >= MAX_IMMUTABLE_MEMTABLES
            or len(self._versions.current.levels[0])
            >= self.options.level0_stop_writes_trigger
        ):
            if stalled_at is None:
                stalled_at = time.perf_counter()
            self._cond.wait()
        if stalled_at is not None:
            self.stats.histogram("db.stall_seconds").record(
                time.perf_counter() - stalled_at
            )
            return
        l0_count = len(self._versions.current.levels[0])
        if (
            self.options.slowdown_delay_s > 0
            and l0_count >= self.options.level0_slowdown_writes_trigger
        ):
            self.stats.counter("db.slowdown_writes").add(1)
            # Release the mutex while throttled so background jobs and
            # readers are not blocked by the penalty sleep.
            self._mutex.release()
            try:
                time.sleep(self.options.slowdown_delay_s)
            finally:
                self._mutex.acquire()

    def _open_new_wal(self, number: int) -> None:
        path = wal_path(self.path, number)
        crypto = self.provider.for_new_file(FILE_KIND_WAL, path)
        self._wal = WALWriter(
            self.env,
            path,
            crypto,
            buffer_size=self.options.wal_buffer_size,
            sync_writes=self.options.wal_sync_writes,
        )
        self._wal_number = number
        self._wal_dek_id = crypto.dek_id

    def _switch_memtable_locked(self) -> None:
        SYNC.process(SP_WAL_BEFORE_ROTATE)
        # Provision the new WAL *before* retiring the old one: if the DEK
        # grant fails (KDS outage), the rotation aborts with the old WAL
        # still writable, so small writes keep riding it (grace mode).
        old_wal = self._wal
        old_number, old_dek_id = self._wal_number, self._wal_dek_id
        self._open_new_wal(self._versions.new_file_number())
        old_wal.close()
        self._imm.append((self._mem, old_number, old_dek_id))
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
        job = self.policy.picker.pick(
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
                self._claim(work[0])
                self._workers += 1
                self._executor.submit(self._work, *work)

    def _claim(self, numbers: set[int]) -> None:
        """Mutex held, in the same hold that chose the work."""
        self._busy |= numbers

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
            elif job.delete_only:
                self._apply_delete_only(job)
            else:
                self._run_merge_compaction(job)
        except AuthenticationError:
            self.stats.counter("integrity.compaction_auth_aborts").add(1)
        except BaseException as exc:  # noqa: BLE001 - surfaced to writers
            with self._mutex:
                self._bg_error = exc
        finally:
            with self._mutex:
                self._workers -= 1
                self._release(numbers)

    def _write_sst_from_memtable(self, mem: Memtable) -> FileMetadata:
        """Persist a memtable as a level-0 SST file (caller applies edit)."""
        number = self._new_file_number()
        path = sst_path(self.path, number)
        crypto = self.provider.for_new_file(FILE_KIND_SST, path)
        builder = SSTBuilder(self.env, path, crypto, self.options)
        for key, seq, vtype, value in mem.entries():
            builder.add(key, seq, vtype, value)
        info = builder.finish()
        self.stats.counter("db.flush_bytes").add(info.file_size)
        self.stats.counter("db.flushes").add(1)
        return self._file_metadata(number, info)

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

    def _flush_job(self, target: tuple[Memtable, int, str]) -> None:
        mem, wal_number, wal_dek = target
        with TRACER.span(
            "db.flush_job", attributes={"wal_number": wal_number}
        ) as span:
            SYNC.process(SP_FLUSH_BEFORE_SST)
            with costs.attribute(self._bg_costs, "flush"):
                meta = self._write_sst_from_memtable(mem)
            SYNC.process(SP_FLUSH_AFTER_SST)
            span.set_attribute("output_bytes", meta.size)
            span.set_attribute("entries", meta.num_entries)
            with self._mutex:
                # WALs older than every still-live memtable's WAL are
                # obsolete.
                other_logs = [
                    entry[1] for entry in self._imm if entry[1] != wal_number
                ]
                remaining_log = min(other_logs + [self._wal_number])
                edit = VersionEdit(
                    log_number=remaining_log,
                    last_sequence=self._versions.last_sequence,
                )
                edit.add_file(0, meta)
                self._versions.log_and_apply(edit)
                self._imm.remove(target)
                # The next memtable is the oldest now: its flush may start
                # while this one is still deleting its WAL.
                self._announce()
            SYNC.process(SP_FLUSH_AFTER_MANIFEST)
            # Control-loop tick inside the span: a policy change this
            # flush provokes parents under db.flush_job in the trace.
            self.policy.tick("flush")
        self._delete_db_file(wal_path(self.path, wal_number), dek_id=wal_dek)

    def _install(self, job: CompactionJob, added: list[FileMetadata]) -> None:
        """One MANIFEST edit: the job's inputs out, ``added`` in at its level."""
        edit = VersionEdit()
        for level, meta in job.input_files():
            edit.delete_file(level, meta.number)
        for meta in added:
            edit.add_file(job.output_level, meta)
        with self._mutex:
            self._versions.log_and_apply(edit)

    def _apply_delete_only(self, job: CompactionJob) -> None:
        self._install(job, [])
        for __, meta in job.input_files():
            self._drop_table(meta)
        self.stats.counter("db.fifo_expirations").add(len(job.input_files()))

    def _run_merge_compaction(self, job: CompactionJob) -> None:
        input_bytes = job.total_input_bytes()
        with TRACER.span(
            "db.compaction",
            attributes={
                "inputs": len(job.input_files()),
                "input_bytes": input_bytes,
                "output_level": job.output_level,
                "offloaded": self.policy.offload,
            },
        ) as span:
            with costs.attribute(self._bg_costs, "compaction"):
                outputs = self._merge(job)
            output_bytes = sum(meta.size for meta in outputs)
            span.set_attribute("output_bytes", output_bytes)
            SYNC.process(SP_COMPACT_AFTER_OUTPUTS)
            self._install(job, outputs)
            SYNC.process(SP_COMPACT_AFTER_MANIFEST)
            for __, meta in job.input_files():
                self._drop_table(meta)

            self.stats.counter("db.compactions").add(1)
            self.stats.counter("db.compaction_bytes_read").add(input_bytes)
            self.stats.counter("db.compaction_bytes_written").add(output_bytes)
            # Tick inside the span: a policy change provoked by this
            # compaction parents under db.compaction in the trace.
            self.policy.tick("compaction")

    def _merge(self, job: CompactionJob) -> list[FileMetadata]:
        """Run the merge on this server or the offloaded worker: one
        executor body either way, output numbers from this DB's VersionSet."""
        executor = (
            self.options.compaction_service if self.policy.offload
            else MergeExecutor(
                self.env, self.provider, self.options, tables=self._tables
            )
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

    def _drop_table(self, meta: FileMetadata) -> None:
        """Forget a dead SST file: evict the reader, unlink, retire its DEK."""
        self._tables.drop(meta.number)
        self._delete_db_file(sst_path(self.path, meta.number), dek_id=meta.dek_id)

    def _delete_db_file(self, path: str, dek_id: str | None = None) -> None:
        if dek_id is None:
            dek_id = ""
            try:
                head = self.env.read_file(path)[:MAX_ENVELOPE_SIZE]
                dek_id = decode_envelope(head).dek_id
            except Exception:  # noqa: BLE001 - unreadable orphan; remove anyway
                pass
        self.env.delete_file(path)
        self.provider.on_file_deleted(dek_id, path)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: bytes, opts: ReadOptions | None = None) -> bytes | None:
        snapshot = (
            MAX_SEQUENCE if opts is None or opts.snapshot is None else opts.snapshot
        )
        self._gets.add(1)
        self.policy.tick("read")
        with TRACER.span("db.get") as span:
            value = self._retrying(span, self._get_once, key, snapshot)
            span.set_attribute("found", value is not None)
            return value

    def _retrying(self, span, read_once, *args):
        """``read_once(*args)``, retried on errors a fresh version can cure.

        Version snapshots carry no file refcounts; a concurrent compaction
        may unlink a file we are about to open, or retire its DEK from the
        KDS.  Retrying with a fresh version is always correct: the data
        moved, it didn't disappear.
        """
        with self._attributing:
            for _attempt in range(8):
                try:
                    return read_once(*args)
                except AuthenticationError:
                    # A failed tag is tampering evidence, never a value to
                    # retry toward: fail fast (and quarantine on the way out).
                    raise
                except (
                    CorruptionError, IOError_, NotFoundError, KeyManagementError
                ):
                    # CorruptionError included: a transient device-level
                    # flip (or injected read chaos) corrupts one read, not
                    # the file; persistent corruption still surfaces after
                    # the retries are exhausted.
                    span.incr("retries")
            return read_once(*args)

    def _get_once(self, key: bytes, snapshot: int) -> bytes | None:
        with self._mutex:
            self._check_open()
            memtables = [entry[0] for entry in self._imm]
            memtables.append(self._mem)
            memtables.reverse()  # newest first
            version = self._versions.current
        return lookup(
            memtables, version, self._tables, self._sst_probes, key, snapshot
        )

    def multi_get(
        self, keys: list[bytes], opts: ReadOptions | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups (RocksDB's MultiGet).

        Keys are sorted before probing so SST block loads are shared by
        neighbouring keys through the block cache within one call.
        """
        opts = opts or ReadOptions()
        snapshot = opts.snapshot if opts.snapshot is not None else MAX_SEQUENCE
        results: dict[bytes, bytes | None] = {}
        with TRACER.span("db.multi_get", attributes={"keys": len(keys)}) as span:
            for key in sorted(set(keys)):
                results[key] = self._retrying(span, self._get_once, key, snapshot)
        self.stats.counter("db.multigets").add(1)
        return results

    def scan(
        self,
        start: bytes = b"",
        end: bytes | None = None,
        limit: int | None = None,
        opts: ReadOptions | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan: [start, end) up to ``limit`` pairs."""
        opts = opts or ReadOptions()
        snapshot = opts.snapshot if opts.snapshot is not None else MAX_SEQUENCE
        self.policy.tick("read")
        with TRACER.span("db.scan") as span:
            results, sources, files_opened = self._retrying(
                span, self._scan_once, start, end, limit, snapshot
            )
            span.set_attribute("results", len(results))
            span.set_attribute("sources", sources)
            span.set_attribute("files_opened", files_opened)
            return results

    def _scan_sources(self, start: bytes, end: bytes | None):
        """What a scan of [start, end) merges: the memtable streams and the
        current version's sorted runs (``Version.runs_for_range``)."""
        with self._mutex:
            self._check_open()
            memtables = [self._mem.entries(start)]
            memtables.extend(entry[0].entries(start) for entry in self._imm)
            version = self._versions.current
        return memtables, version.runs_for_range(start, end)

    def _scan_once(
        self,
        start: bytes,
        end: bytes | None,
        limit: int | None,
        snapshot: int,
    ) -> tuple[list[tuple[bytes, bytes]], int, int]:
        """One attempt: (pairs, merge sources, files a reader was got for)."""
        memtables, runs = self._scan_sources(start, end)
        opened: list[int] = []

        def entries_of(meta: FileMetadata, seek: bytes):
            opened.append(meta.number)
            return self._tables.reader(meta).entries_from(seek)

        results = list(
            scan_runs(memtables, runs, entries_of, start, end, limit, snapshot)
        )
        sources = len(memtables) + len(runs)
        self.stats.counter("db.scans").add(1)
        self.stats.counter("db.scan_sources").add(sources)
        return results, sources, len(opened)

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
        """A streaming forward cursor over [start, end).

        Yields (key, value) pairs lazily.  The cursor reads a consistent
        snapshot of the sources captured at creation: every file in range
        is pinned (its reader obtained) now, so files compacted away
        mid-iteration keep serving through their open readers (POSIX unlink
        semantics) and iteration never sees torn state; blocks load as the
        cursor reaches them.  Writes made after creation may or may not be
        visible; pass ``opts.snapshot`` for an exact cutoff.
        """
        opts = opts or ReadOptions()
        snapshot = opts.snapshot if opts.snapshot is not None else MAX_SEQUENCE
        with TRACER.span("db.iterator") as span:
            memtables, runs, pinned = self._retrying(
                span, self._pin_scan_sources, start, end
            )
            span.set_attribute("sources", len(memtables) + len(runs))
            span.set_attribute("files_opened", len(pinned))

        def cursor():
            with self._attributing:  # reached lazily, long after this call
                yield from scan_runs(
                    memtables, runs,
                    lambda meta, seek: pinned[meta.number].entries_from(seek),
                    start, end, snapshot_seq=snapshot,
                )

        return cursor()

    def _pin_scan_sources(self, start: bytes, end: bytes | None):
        """``_scan_sources`` plus a reader for every file of every run,
        opened after the mutex is released: no writer or ``get`` waits for
        a cold open (envelope read, DEK resolution, index load).  A file
        compacted away in between raises, and ``_retrying`` captures again."""
        memtables, runs = self._scan_sources(start, end)
        pinned = {
            meta.number: self._tables.reader(meta)
            for run in runs for meta in run
        }
        return memtables, runs, pinned

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
        counter = self.options.trusted_counter
        if counter is not None:
            try:
                state = counter.read()
            except CorruptionError:
                state = None
            snap["integrity.counter_value"] = state.value if state else 0
        return snap

    def controller_state(self) -> dict | None:
        """The adaptive controller's current state (None when disabled)."""
        return self.policy.state()

    def obs_dict(self) -> dict:
        """The OP_STATS ``obs`` section: derived signals (and, when the
        adaptive loop is on, the controller's state).

        With the controller running, the control loop owns the sampling
        cadence and this returns its latest sample; otherwise each stats
        export advances the delta baseline itself.
        """
        state = self.controller_state()
        if state is not None:
            signals = self.signals.latest() or self.signals.sample()
        else:
            signals = self.signals.sample()
        out = {"signals": signals}
        if state is not None:
            out["controller"] = state
        return out

    def snapshot(self) -> int:
        """A sequence number usable as ReadOptions.snapshot.

        Note: background compaction keeps only the newest version of each
        key, so snapshots are best-effort once compaction touches the range
        (documented engine simplification).
        """
        return self.committed_sequence()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush(self, wait: bool = True) -> None:
        """Force the active memtable (and WAL buffer) to persistent SSTs."""
        with self._mutex:
            self._check_state()
            self._wal.flush_buffer()
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

    def compact_range(self) -> None:
        """Flush, then drive compaction until the tree is quiescent."""
        self.flush()
        self.wait_for_compaction()

    def force_compaction(self) -> None:
        """Manual major compaction: merge every live SST file into one run.

        Regardless of the picker's triggers, all files merge to the
        bottommost level (level 0 for universal/FIFO trees).  Under SHIELD
        this rotates every SST DEK in one pass -- the operational response
        the paper prescribes for a suspected DEK compromise (Section 5.5).
        """
        self.flush()
        self.wait_for_compaction()
        with self._mutex:
            files = self._versions.current.all_files()
            if not files:
                return
            inputs: dict[int, list[FileMetadata]] = {}
            for level, meta in files:
                inputs.setdefault(level, []).append(meta)
            output_level = (
                self.options.num_levels - 1
                if self.policy.style in ("leveled", "lazy-leveled")
                else 0
            )
            job = CompactionJob(
                inputs=inputs, output_level=output_level, bottommost=True
            )
            self._claim(job.input_numbers())
        try:
            self._run_merge_compaction(job)
        finally:
            self._release(job.input_numbers())

    def copy_file_set(
        self, write: Callable[[str, bytes], None], skip: Collection[int] = ()
    ) -> tuple[list[int], str]:
        """The one copy of an openable store: flush, then ``write(name,
        data)`` every live SST not in ``skip``, the MANIFEST, CURRENT; returns
        (live SST numbers, MANIFEST name).  List and MANIFEST are read under
        the mutex; a file retired mid-copy restarts it (numbers are never
        reused).  Files keep their envelopes (§5.4)."""
        done = set(skip)
        while True:
            self.flush()
            with self._mutex:
                self._check_state()
                live = sorted(meta.number for __, meta in self.live_files())
                current = self.env.read_file(current_path(self.path))
                manifest_name = current.decode().strip()
                manifest = self.env.read_file(f"{self.path}/{manifest_name}")
            try:
                for number in live:
                    if number not in done:
                        name = f"{number:06d}.sst"
                        write(name, self.env.read_file(f"{self.path}/{name}"))
                        done.add(number)
            except IOError_:
                if set(live) <= {meta.number for __, meta in self.live_files()}:
                    raise  # nothing was retired under the copy
                continue
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
        """RocksDB-style introspection properties.

        Supported: ``repro.num-files-at-level<N>``, ``repro.total-sst-size``,
        ``repro.num-live-files``, ``repro.last-sequence``,
        ``repro.immutable-memtables``, ``repro.block-cache-usage``,
        ``repro.stats`` (the full counter snapshot dict).
        """
        if name.startswith("repro.num-files-at-level"):
            return self.num_files_at_level(int(name.rsplit("level", 1)[1]))
        with self._mutex:
            if name == "repro.total-sst-size":
                return self._versions.current.total_size()
            if name == "repro.num-live-files":
                return self._versions.current.num_files()
            if name == "repro.last-sequence":
                return self._versions.last_sequence
            if name == "repro.immutable-memtables":
                return len(self._imm)
        if name == "repro.block-cache-usage":
            return self._block_cache.usage if self._block_cache else 0
        if name == "repro.stats":
            return self.stats.snapshot()
        raise InvalidArgumentError(f"unknown property {name!r}")

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
            if self._wal is not None:
                self._wal.close()
            self._versions.close()
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
        if self._wal is not None:
            self._wal.simulate_process_crash()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
