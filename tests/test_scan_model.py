"""Model test of the engine: one dict oracle, rules not examples.

A Hypothesis state machine grows a random tree -- overlapping L0 files,
several levels holding older versions of the same keys, tombstones, an
immutable memtable whose flush is parked at a sync point, a close and
reopen through WAL replay -- and after any step may ask every scanner
(``DB.scan``, ``DB.iterator``, ``ReadOnlyInstance.scan``) for a random
``(start, end, limit, snapshot)`` and every point reader (``DB.get``,
``DB.multi_get``, ``ReadOnlyInstance.get``) for random keys: same answers
as the oracle.  The storage adversary has a rule of its own: a typed error
or a quarantine, never a value the oracle lacks.

A crash is a rule too: ``crash_at`` kills the engine at one declared sync
point and recovers from what was durable there (see its docstring).  So is
a fault: ``fault_window`` arms one fault on the machine's
``FaultInjectionEnv`` or ``FaultyKDS``, runs writes, reads and a flush
under it, heals it, and demands the engine come back.

One machine per scheme; each example draws the rest of its deployment: the
compaction style (leveled, universal or lazy-leveled), the tracer on or
off, and whether fault windows reach the engine directly or through a
``KVServer``.

This is ROADMAP's model-test item: ``Oracle`` is the dict with snapshots
that item asks for.  Grow this file; do not start another.
"""

import contextlib
import functools
import itertools
import random
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.dist.readonly import ReadOnlyInstance
from repro.env.faulty import FaultInjectionEnv
from repro.env.mem import MemEnv
from repro.errors import (
    AuthenticationError, CorruptionError, ReproError, RollbackError,
)
from repro.integrity.counter import MemoryTrustedCounter
from repro.keys.client import KeyClient
from repro.keys.faulty import FaultyKDS
from repro.keys.kds import InMemoryKDS
from repro.keys.resilience import CircuitBreaker, RetryPolicy
from repro.lsm.bloom import BloomFilter
from repro.lsm.db import (
    DB, HEALTH_FAILED, HEALTH_HEALTHY,
    SP_COMPACT_AFTER_OUTPUTS, SP_FLUSH_BEFORE_SST,
)
from repro.lsm.envelope import MAX_ENVELOPE_SIZE, decode_envelope
from repro.lsm.filename import sst_path, wal_path
from repro.lsm.options import (
    COMPACTION_LAZY_LEVELED, COMPACTION_LEVELED, COMPACTION_UNIVERSAL,
    Options, ReadOptions,
)
from repro.lsm.write_batch import WriteBatch
from repro.service.client import KVClient
from repro.service.server import KVServer, ServiceConfig
from repro.shield.config import DEFAULT_WAL_BUFFER
from repro.shield.provider import ShieldCryptoProvider
from repro.tools.dek_audit import audit_directory
from repro.util.coding import decode_fixed32
from repro.util.clock import VirtualClock
from repro.util.syncpoint import SYNC
from tests import test_obs_e2e as obs_e2e

WAIT_S = 20.0
PATH = "/model"
ALL_KEYS = [b"k%02d" % i for i in range(40)]
KEYS = st.sampled_from(ALL_KEYS)
VALUES = st.binary(max_size=24)
# Scan bounds also fall before, between and after the keys that exist.
#: One atomic batch: (key, value) puts and (key, None) deletes.
BATCHES = st.lists(st.tuples(KEYS, st.none() | VALUES), min_size=1, max_size=24)
BOUNDS = st.one_of(KEYS, st.sampled_from([b"", b"k", b"k05x", b"k11\x00", b"zz"]))

#: Every point a crash may land on (the engine's modules have declared them
#: by now: this file imports the DB and the SHIELD provider).
CRASH_POINTS = SYNC.declared()
#: DEKs one crash may strand: the ``dek:before_retire`` window itself, plus
#: provisioning between the env fork and the KDS fork inside the capture.
MAX_LEAKED_DEKS = 3
#: The compaction styles an example draws from (FIFO deletes data the
#: oracle still holds, so it has no place here).
STYLES = (COMPACTION_LEVELED, COMPACTION_UNIVERSAL, COMPACTION_LAZY_LEVELED)
#: What the storage adversary does to a named WAL (``tamper_with_a_named_wal``):
#: ``damage`` does each.
WAL_ATTACKS = ("delete", "cut_at_a_unit", "cut_inside_a_unit", "swap", "splice")
#: A crash drive's write buffer: two drive batches fill it, so the write
#: that rotates the WAL can be the one in flight at the kill.
DRIVE_WRITE_BUFFER = 2048
DRIVE = ("reopen", "write", "write", "flush", "write", "compact")
MAX_DRIVE_STEPS = 4 * len(DRIVE)
#: Engine counters the machines tallied, by scheme, every handle's: each
#: machine's budget must move a file down unread, flush a memtable that
#: held a shadowed version, and leave a flushed block in the cache
#: (``_machine``).
TALLIED = ("db.trivial_moves", "db.flush_shadowed", "db.flush_cached_blocks")
TALLIES = {name: Counter() for name in TALLIED}

#: What a fault window arms, by kind: ``arm(env, kds, rng)`` on the
#: machine's injectors, their draws seeded from the window's.
FAULTS = {
    "kds_outage": lambda env, kds, rng: kds.go_down(),
    "kds_errors": lambda env, kds, rng: kds.set_error_rate(0.5),
    "kds_timeouts": lambda env, kds, rng: kds.set_timeouts(0.3, after_s=0.01),
    "kds_flap": lambda env, kds, rng: kds.set_flap_schedule(3, 2),
    "read_errors": lambda env, kds, rng: env.set_read_error_rate(0.2),
    "bit_flips": lambda env, kds, rng: env.set_read_flip_rate(0.1),
    "sync_faults": lambda env, kds, rng: env.fail_syncs(after=rng.randint(0, 3)),
}
#: ``(kind, scheme)`` pairs whose fault nothing can reach, which the fault
#: window rule and its per-kind test leave out: a plaintext deployment never
#: asks the KDS.  Bit flips are drawn everywhere: every SST unit carries a
#: tag or a CRC (format v3).
NOT_DRAWN = {(kind, None) for kind in FAULTS if kind.startswith("kds_")}
#: A window's ops; one flush runs halfway through them.
WINDOW_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), BATCHES),
        st.tuples(st.just("get"), st.lists(KEYS, min_size=1, max_size=8)),
        st.tuples(
            st.just("scan"), BOUNDS, st.none() | BOUNDS,
            st.none() | st.integers(min_value=1, max_value=30),
        ),
    ),
    max_size=8,
)
#: The served axis: the executor loop, serving a pipelined burst of gets
#: one at a time; a health loop that recovers the engine; a client whose
#: backoff is milliseconds.
SERVED = ServiceConfig(health_check_interval_s=0.05)
SERVED_CLIENT = dict(
    pool_size=1, timeout_s=WAIT_S, max_retries=4,
    backoff_base_s=0.001, backoff_max_s=0.004,
)
#: How far a healed window moves the KDS clock: past the breaker's reset
#: window, so an open breaker half-opens and lets the next request probe.
KDS_HEAL_S = 60.0


class Oracle:
    """A dict with history: what any read at any snapshot must return."""

    def __init__(self):
        self._log: list[tuple[bytes, bytes | None]] = []

    def write(self, batch) -> None:
        """Apply ``(key, value)`` puts and ``(key, None)`` deletes in order."""
        self._log.extend(batch)

    def snapshot(self) -> int:
        """A token for "everything written so far"."""
        return len(self._log)

    def rewind(self, at: int) -> None:
        """Forget everything written after token ``at``."""
        del self._log[at:]

    def get(self, key: bytes, at=None) -> bytes | None:
        return dict(self._log[:at]).get(key)

    def scan(self, start=b"", end=None, limit=None, at=None):
        view = dict(self._log[:at])
        keys = sorted(
            key for key, value in view.items()
            if value is not None
            and key >= start and (end is None or key < end)
        )
        return [(key, view[key]) for key in keys[:limit]]


class Killed(Exception):
    """Raised from a sync-point callback: the process dies right here."""


def write_batch(batch) -> WriteBatch:
    """The engine's batch for ``(key, value)`` puts and ``(key, None)`` deletes."""
    writes = WriteBatch()
    for key, value in batch:
        if value is None:
            writes.delete(key)
        else:
            writes.put(key, value)
    return writes


def park_flush(db) -> threading.Event:
    """Switch memtables and hold the flush job at its first sync point, so
    the DB keeps an immutable memtable until the returned event is set."""
    held, release = threading.Event(), threading.Event()

    def hold():
        held.set()
        assert release.wait(WAIT_S)

    SYNC.set_callback(SP_FLUSH_BEFORE_SST, hold)
    SYNC.enable()
    db.flush(wait=False)
    assert held.wait(WAIT_S)
    SYNC.clear_callback(SP_FLUSH_BEFORE_SST)  # later flushes run free
    return release


class ScanModel(RuleBasedStateMachine):
    scheme: str | None = None

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()  # a write slowdown never sleeps
        # The KDS side has a clock of its own: the breaker half-opens when the
        # machine says so.
        self.kds_clock = VirtualClock()
        self.env = FaultInjectionEnv(MemEnv())
        self.kds = FaultyKDS(InMemoryKDS(), clock=self.kds_clock)
        # SHIELD++ freshness rides along, so crashes cover the counter:* points.
        self.counter = None if self.scheme is None else MemoryTrustedCounter()
        self.style, self.served = COMPACTION_LEVELED, False
        # (handle, engine snapshot, oracle token, ``_epoch()`` when taken)
        self.snapshots: list[tuple] = []
        self._epoch_base = 0  # merges and dropped versions of the handles gone
        self.oracle = Oracle()
        self.parked: threading.Event | None = None
        self.in_flight = None  # the batch between its write call and its ack
        self.leaked_by_last_crash = 0
        self.db = self.readonly = None
        self._drive_batches = itertools.count()
        # Above every key of ALL_KEYS and of any earlier run.
        self._run_keys = (b"r%06d" % n for n in itertools.count())
        self._exit = contextlib.ExitStack()

    def boot(self, style=COMPACTION_LEVELED, traced=False, served=False):
        """Open the deployment: a writer and a read-only instance over it."""
        self.style, self.served = style, served
        if traced:
            self._exit.enter_context(obs_e2e.traced())
        self._open()
        self.readonly = self._open_readonly()

    def _options(self, **overrides):
        """Thresholds small enough that 40 keys make a deep tree: ~2 entries a
        block, ~2 blocks a file, L0 compacts at 4 files, L1 holds ~2 files.
        Synced WALs: an acked write is a durable write."""
        return replace(Options(
            env=self.env,
            clock=self.clock,
            write_buffer_size=1 << 20,  # the machine decides when to flush
            block_size=64,
            target_file_size=128,
            level0_file_num_compaction_trigger=4,
            max_bytes_for_level_base=256,
            fanout=2,
            max_background_jobs=1,
            wal_sync_writes=True,
            compaction_style=self.style,
        ), **overrides)

    def _provider(self, server_id, kds=None):
        """SHIELD over the machine's KDS (or ``kds``), with the retries and
        breaker every SHIELD engine has -- on the KDS clock, so backoff never
        sleeps."""
        key_client = KeyClient(
            kds or self.kds, server_id, default_scheme=self.scheme,
            retry_policy=RetryPolicy(rng=random.Random(0), clock=self.kds_clock),
            breaker=CircuitBreaker(clock=self.kds_clock),
        )
        return ShieldCryptoProvider(key_client, scheme=self.scheme)

    def _open(self, **overrides):
        if self.db is not None:
            self._epoch_base += self._drops()
            self._tally()
        self.db = None  # a kill inside recovery leaves nothing to close
        if self.scheme is not None:
            # The paper's WAL buffer: a synced write flushes it, so a
            # read-only instance sees every acked write in the WAL file.
            overrides = dict(
                crypto_provider=self._provider("server-1"),
                wal_buffer_size=DEFAULT_WAL_BUFFER,
                trusted_counter=self.counter,
                **overrides,
            )
        db = DB(PATH, self._options(**overrides))
        # Recovery flushes the replayed WAL to L0 and schedules whatever
        # compaction that makes due: quiescent before the next rule.
        db.wait_for_compaction()
        self.db = db
        self._note_compactions()

    def _open_readonly(self):
        provider = None if self.scheme is None else self._provider("reader-1")
        return ReadOnlyInstance(
            PATH, self._options(trusted_counter=self.counter), provider=provider
        )

    def _reopen_both(self):
        """Fresh table sets: no cached reader, no quarantine mark."""
        self.readonly.close()
        self.db.close()
        self._open()
        self.readonly = self._open_readonly()

    def _tally(self):
        for name, tally in TALLIES.items():
            tally[self.scheme] += self.db.stats.counter(name).value

    def _drops(self) -> int:
        """The live handle's merges, and the versions its flushes dropped
        (each keeps only a key's newest version)."""
        stats = self.db.stats
        return (stats.counter("db.compactions").value
                + stats.counter("db.flush_shadowed").value)

    def _epoch(self) -> int:
        """Merges and dropped versions so far, every handle's."""
        return self._epoch_base + (0 if self.db is None else self._drops())

    def _note_compactions(self):
        """Drop the snapshots carried over a ``reopen`` or ``crash_at`` from
        a dead handle once a merge has run, or a flush dropped a version,
        since they were taken: to the live handle they are plain sequences,
        and nothing pins across handles, so the first merge or flush that
        keeps only each key's newest version ends them.  (A reopen's own
        flush keeps every version.)  A snapshot of the live handle pins its
        view (its memtables and files): it is never dropped."""
        epoch = self._epoch()
        self.snapshots = [
            taken for taken in self.snapshots
            if taken[0] is self.db or taken[3] == epoch
        ]

    def _live_snapshot(self, pick):
        """``(engine seq, oracle token)`` of a live snapshot, or Nones."""
        self._note_compactions()
        if pick is None or not self.snapshots:
            return None, None
        return self.snapshots[pick % len(self.snapshots)][1:3]

    def teardown(self):
        if self.parked is not None:
            self.parked.set()
        SYNC.clear()
        for store in (self.readonly, self.db):
            if store is not None:
                store.close()
        if self.db is not None:
            self._tally()
        self._exit.close()

    # -- writes ---------------------------------------------------------------

    @initialize(
        style=st.sampled_from(STYLES),
        traced=st.booleans(),
        served=st.booleans(),
        generations=st.lists(
            st.tuples(st.integers(0, 2**32), st.integers(8, len(ALL_KEYS))),
            max_size=12,
        ),
    )
    def grow_a_tree(self, style, traced, served, generations):
        """Boot the deployment the example drew, then start from a tree, not
        from nothing: each generation rewrites a seeded sample of the key
        space (one key in five deleted) and is flushed, and compacted when
        due, so older versions of a key sit in deeper levels.  Seeds, not
        drawn lists: Hypothesis draws short lists, and short generations
        never fill a level."""
        self.boot(style, traced, served)
        for seed, size in generations:
            rng = random.Random(seed)
            self.write([
                (key, None if rng.random() < 0.2 else rng.randbytes(rng.randrange(25)))
                for key in rng.sample(ALL_KEYS, size)
            ])
            self._settle()

    @rule(batch=BATCHES)
    def write(self, batch):
        self.in_flight = batch
        self.db.write(write_batch(batch))
        self.oracle.write(batch)  # acked; a kill reads in_flight before this
        self.in_flight = None

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.write([(key, value)])

    @rule(key=KEYS)
    def delete(self, key):
        self.write([(key, None)])

    @precondition(lambda self: self.parked is None)
    @rule(files=st.integers(4, 8), width=st.integers(1, 3))
    def write_an_ascending_run(self, files, width):
        """A load in key order: ``files`` flushed files of ``width`` fresh
        keys each, every key above all written before, so that once L0
        holds only such files a leveled job moves them down unread (and
        later rules crash, fault and tamper over moved files)."""
        for __ in range(files):
            self.write([(next(self._run_keys), b"run") for __ in range(width)])
            self._settle()

    @rule()
    def snapshot(self):
        self.snapshots.append(
            (self.db, self.db.snapshot(), self.oracle.snapshot(), self._epoch())
        )

    @precondition(lambda self: self.parked is None)
    @rule(pick=st.integers(0, 1_000))
    def release_a_snapshot(self, pick):
        """A released snapshot lets its view go: the next
        ``wait_for_compaction()`` leaves none of the files only it held on
        storage, unless the live version still names them."""
        live = [taken for taken in self.snapshots if taken[0] is self.db]
        if not live:
            return
        taken = live[pick % len(live)]
        # By identity: two snapshots of one sequence are equal ints.
        self.snapshots = [other for other in self.snapshots if other is not taken]
        held = {
            meta.number for other in live if other is not taken
            for __, meta in other[1].view.version.all_files()
        }
        only = {
            meta.number for __, meta in taken[1].view.version.all_files()
        } - held
        taken[1].release()
        self.db.wait_for_compaction()
        only -= {meta.number for __, meta in self.db.live_files()}
        assert [n for n in only if self.env.file_exists(sst_path(PATH, n))] == []

    @precondition(lambda self: self.parked is None)
    @rule(key=KEYS, before=st.none() | VALUES, versions=st.integers(4, 16))
    def bury_a_snapshot_under_versions(self, key, before, versions):
        """One version of ``key`` in the memtable, a snapshot, then enough
        newer versions to fill whole blocks, then a flush that keeps only the
        newest: the live snapshot still reads its version, from the memtable
        its view pinned, as it does after any compaction the flush set off."""
        self.write([(key, before)])
        self.snapshot()
        for version in range(versions):
            self.put(key, b"v%d" % version)
        shadowed = self.db.stats.counter("db.flush_shadowed").value
        self._settle()
        assert self.db.stats.counter("db.flush_shadowed").value >= shadowed + versions
        __, seq, at, ___ = self.snapshots[-1]  # the live handle's: exact
        opts = ReadOptions(snapshot=seq)
        expected = self.oracle.get(key, at)
        assert self.db.get(key, opts) == expected, "DB.get"
        assert self.db.multi_get([key], opts) == {key: expected}, "DB.multi_get"

    # -- tree shape -----------------------------------------------------------

    @precondition(lambda self: self.parked is None)
    @rule(compact=st.sampled_from(["picker", "picker", "picker", "full"]))
    def flush(self, compact):
        """A new L0 file; quiescent afterwards, so the tree a later rule
        sees depends on the rules run and not on thread timing."""
        self._settle(full=compact == "full")

    @precondition(lambda self: self.parked is None)
    @rule()
    def park_flush(self):
        """From here to ``unpark_flush`` scans see an immutable memtable (one
        version written first if the memtable is empty).  Preconditions
        read no engine state: on the served axis that state depends on when
        the health loop ran, and the rules Hypothesis may draw must not."""
        if len(self.db._mem) == 0:
            self.put(ALL_KEYS[0], b"parked")
        self.parked = park_flush(self.db)

    @precondition(lambda self: self.parked is not None)
    @rule()
    def unpark_flush(self):
        self.parked.set()
        self.parked = None
        self._settle()

    @precondition(lambda self: self.parked is None)
    @rule()
    def reopen(self):
        """Whatever the memtable held comes back through WAL replay, under
        the sequence numbers it was written with (snapshots stay exact as
        plain sequences, until the next compaction: ``_note_compactions``)."""
        self.db.close()
        self._open()

    def _settle(self, full=False):
        self.db.flush()
        self.db.wait_for_compaction()
        if full:
            self.db.force_compaction()
        self._note_compactions()
        self._pinned_snapshots_agree()

    def _pinned_snapshots_agree(self):
        """Whatever compaction just ran, every key reads at each snapshot of
        the live handle as the oracle had it then: the files it holds are
        still there."""
        for handle, seq, at, __ in self.snapshots:
            if handle is self.db:
                then = dict(self.oracle.scan(at=at))
                got = self.db.multi_get(ALL_KEYS, ReadOptions(snapshot=seq))
                assert got == {key: then.get(key) for key in ALL_KEYS}, seq

    # -- crashes --------------------------------------------------------------

    def reaches(self, point: str) -> bool:
        """Whether this deployment ever passes ``point``: no DEK or counter
        without SHIELD."""
        if point.split(":")[0] in ("dek", "counter"):
            return self.scheme is not None
        return True

    @precondition(lambda self: self.parked is None)
    @rule(point=st.sampled_from(CRASH_POINTS))
    def crash_at(self, point):
        """Kill the engine the first time ``point`` is hit, recover from what
        was durable there, and demand a clean recovery.

        The first hit takes the crash image -- the oracle token, the env's
        synced bytes, the KDS registry and the trusted counter, which all
        outlive a crashed host -- then raises, killing the operation; every
        later hit raises too.  Ordinary steps (reopen, write, flush,
        compact) drive the engine towards the point, a bounded number of
        them, each waiting for the background work it starts: the image is
        taken while the foreground waits, so it is exact.  Then the writer
        and a read-only instance reopen over the image, and
        - every read agrees with the oracle; the batch in flight at the kill
          is all there or not at all;
        - every file is readable and, under SHIELD, sealed, with a key/nonce
          pair and a DEK of its own that the KDS still knows;
        - the crash stranded at most ``MAX_LEAKED_DEKS`` DEKs."""
        if not self.reaches(point):
            return
        leaked = self._audit()
        image = {}

        def on_hit():
            if not image:
                image["in_flight"] = self.in_flight  # before the token: see write
                image["at"] = self.oracle.snapshot()
                image["env"] = self.env.fork(durable_only=True)
                image["kds"] = self.kds.fork()
                image["counter"] = (
                    None if self.counter is None else self.counter.fork()
                )
            raise Killed(point)

        SYNC.set_callback(point, on_hit)
        SYNC.enable()
        try:
            self._drive(image)
        finally:
            # A merge that reached its outputs may have installed before the
            # kill, uncounted by the handle it ran on.
            self._epoch_base += SYNC.hits(SP_COMPACT_AFTER_OUTPUTS)
            SYNC.clear()
            self.readonly.close()
            if self.db is not None:
                self.db.simulate_crash()
        assert image, f"{point} never fired in {MAX_DRIVE_STEPS} steps"

        # A fork is the inner store's: wrap it again, so that later fault
        # windows still find their injectors.
        self.env = FaultInjectionEnv(image["env"])
        self.kds = FaultyKDS(image["kds"], clock=self.kds_clock)
        self.counter, self.in_flight = image["counter"], None
        self.oracle.rewind(image["at"])
        self._open()
        self.readonly = self._open_readonly()
        got = self._agree_after_recovery(image["in_flight"], point)
        assert {key: self.readonly.get(key) for key in ALL_KEYS} == got
        self.leaked_by_last_crash = self._audit() - leaked
        assert self.leaked_by_last_crash <= MAX_LEAKED_DEKS

    def _drive(self, image):
        """Ordinary steps until the armed point has fired.  The first reopens
        with a write buffer two drive batches deep, so a write may be what
        rotates the WAL (and be in flight at the kill)."""
        steps = itertools.islice(itertools.cycle(DRIVE), MAX_DRIVE_STEPS)
        for step in steps:
            try:
                if step == "reopen":
                    self.db.close()
                    self._open(write_buffer_size=DRIVE_WRITE_BUFFER)
                elif step == "write":
                    n = next(self._drive_batches)
                    self.write([
                        (key, None if i % 5 == n % 5 else (b"drive-%06d" % n) * 2)
                        for i, key in enumerate(ALL_KEYS)
                    ])
                    self.db.wait_for_compaction()
                elif step == "flush":
                    self.db.flush()
                    self.db.wait_for_compaction()
                else:
                    self.db.force_compaction()
            except (Killed, ReproError):  # the kill, or the error it left
                if not image:
                    raise
            if image:
                return

    def _audit(self) -> int:
        """``dek_audit`` over the directory; returns how many DEKs the KDS
        holds that no file names (leaked)."""
        audit = audit_directory(self.env, PATH)
        assert [row["name"] for row in audit["rows"] if "error" in row] == []
        if self.scheme is None:
            return 0
        assert audit["plaintext_data_files"] == []
        assert audit["duplicate_key_nonce_pairs"] == []
        assert audit["shared_deks"] == []
        referenced = {row["dek_id"] for row in audit["rows"]}
        assert sorted(dek for dek in referenced if not self.kds.knows(dek)) == []
        return self.kds.live_dek_count() - len(referenced)

    def _agree_after_recovery(self, in_doubt, where):
        """Every key reads as the oracle has it, counting ``in_doubt`` -- the
        batch a kill or a raising write left unacked -- all or nothing."""
        without = {key: self.oracle.get(key) for key in ALL_KEYS}
        got = {key: self.db.get(key) for key in ALL_KEYS}
        if in_doubt is not None and got != without:
            self.oracle.write(in_doubt)
        assert got == {key: self.oracle.get(key) for key in ALL_KEYS}, (
            f"{where}: an acked write lost, a delete undone or a batch torn"
        )
        return got

    # -- faults ---------------------------------------------------------------

    @precondition(lambda self: self.parked is None)
    @rule(
        kind=st.sampled_from(sorted(FAULTS)),
        steps=WINDOW_STEPS,
        seed=st.integers(0, 2**32),
    )
    def fault_window(self, kind, steps, seed):
        """``run_fault_window``, for a fault this deployment checks and can
        reach."""
        if (kind, self.scheme) not in NOT_DRAWN:
            self.run_fault_window(kind, steps, seed)

    def run_fault_window(self, kind, steps, seed):
        """Arm one fault of ``kind``, run ``steps`` and a flush under it, heal
        it, and demand the engine come back.

        Inside the window a read returns the oracle's value or raises a
        ``ReproError``, never another value.  The first write that raises is
        in doubt and ends the window: its unit may be in the WAL although
        the memtable never got it, so the window ends with a reopen, after
        which the batch counts all or nothing.  Once healed, a
        background-error degradation clears without a reopen -- through
        ``try_recover()``, or the server's health loop on the served axis --
        and the flush it stopped runs by itself.  Only a quarantined SST, or
        an engine a corrupt read failed, may need
        one (an operator's restart), and the engine comes back from it
        healthy.  Then every key agrees with the oracle."""
        self.env._rng.seed(seed)
        self.kds._rng.seed(seed)
        with contextlib.ExitStack() as stack:
            store = self.db
            if self.served:
                server = KVServer(self.db, SERVED).start()
                stack.callback(server.stop)
                store = KVClient(
                    *server.address, rng=random.Random(seed), **SERVED_CLIENT
                )
                stack.callback(store.close)
            FAULTS[kind](self.env, self.kds, random.Random(seed))
            try:
                in_doubt = self._run_window(store, steps)
            finally:
                self.env.heal()
                self.kds.heal()
            self.kds_clock.advance(KDS_HEAL_S)
            if not self.served:
                self.db.try_recover()  # served, it is the health loop's job
            # Wait on the engine's condition: wait_for_compaction() would
            # derive the stopped flush again, and hide a recovery that did not.
            with self.db._cond:
                assert self.db._cond.wait_for(self._recovered, WAIT_S), (
                    self.db.health()
                )
        self.db.wait_for_compaction()
        self._note_compactions()
        health = self.db.health()
        if in_doubt is not None or health["state"] != HEALTH_HEALTHY:
            assert in_doubt is not None or health["reason"] == "quarantined-sst" or (
                health["state"] == HEALTH_FAILED and kind == "bit_flips"
            ), health
            self._reopen_both()
            assert self.db.health()["state"] == HEALTH_HEALTHY
        self._agree_after_recovery(in_doubt, kind)

    def _recovered(self):
        """No background error left and no memtable left unflushed -- or an
        engine failed for good, which only a reopen helps."""
        health = self.db.health()
        return health["state"] == HEALTH_FAILED or (
            health["reason"] != "background-error" and not self.db._imm
        )

    def _run_window(self, store, steps):
        """``steps`` through ``store`` (the engine, or a client of a server
        over it), a flush halfway; returns the first write that raised."""
        half = len(steps) // 2
        for op, *args in [*steps[:half], ("flush",), *steps[half:]]:
            try:
                if op == "write":
                    store.write(write_batch(args[0]))
                    self.oracle.write(args[0])
                elif op == "flush":
                    store.flush()
                elif op == "get":
                    expected = [self.oracle.get(key) for key in args[0]]
                    assert self._gets(store, args[0]) == expected, "get"
                else:
                    assert store.scan(*args) == self.oracle.scan(*args), "scan"
            except ReproError:
                if op == "write":
                    return args[0]
            if op == "flush":
                self.db.wait_for_compaction()
        return None

    @staticmethod
    def _gets(store, keys):
        """Point reads; over the wire one pipelined burst."""
        if isinstance(store, DB):
            return [store.get(key) for key in keys]
        pipe = store.pipeline()
        for key in keys:
            pipe.get(key)
        return pipe.execute()

    # -- the adversary --------------------------------------------------------

    @precondition(lambda self: self.scheme is not None and self.parked is None)
    @rule(pick=st.integers(0, 1_000), other=st.integers(0, 1_000))
    def substitute_a_live_sst_with_a_sibling(self, pick, other):
        """Authentic bytes under the wrong name pass every tag; the name's
        MANIFEST entry is what they fail.  Every reader that reaches the file
        raises and quarantines it; no reader returns what the oracle lacks."""
        if self.db._versions.current.num_files() < 2:
            return
        self._reopen_both()  # every live file cold, nothing in the background
        files = [meta for __, meta in self.db.live_files()]
        if len(files) < 2:
            return  # the reopen's compaction left one file
        step = 1 + other % (len(files) - 1)  # any file but the victim
        victim, sibling = files[pick % len(files)], files[(pick + step) % len(files)]
        path = sst_path(PATH, victim.number)
        honest = self.env.read_file(path)
        self.env.write_file(path, self.env.read_file(sst_path(PATH, sibling.number)))
        for store in (self.db, self.readonly):
            with pytest.raises(AuthenticationError):
                store.scan()  # reaches every file
            assert victim.number in store.quarantined_files()
            for key in ALL_KEYS:
                try:
                    assert store.get(key) == self.oracle.get(key)
                except AuthenticationError:
                    pass
        with pytest.raises(AuthenticationError):
            list(self.db.iterator())
        self.env.write_file(path, honest)
        self._reopen_both()  # no quarantine mark outlives the rule

    @precondition(lambda self: self.scheme is not None and self.parked is None)
    @rule(pick=st.integers(0, 1_000))
    def tamper_with_a_named_wal(self, pick):
        """The adversary gets the log.  Two named WALs hold acked, synced
        writes -- one rotated out (the MANIFEST holds its synced length), one
        active (the counter's floor does) -- in an image of storage taken
        while the rotated one's flush is parked.  On a copy of the image
        each, every one of ``WAL_ATTACKS`` hits the WAL ``pick`` chooses.  A
        read-only instance and a writer over the copy then raise
        ``RollbackError``, ``AuthenticationError`` or ``CorruptionError``, or
        -- the damage beyond every anchored byte -- read every acked write.
        A swap is the DEK-ID check's to name: ``AuthenticationError``."""
        self.put(ALL_KEYS[pick % len(ALL_KEYS)], b"in the rotated WAL")
        self.parked = park_flush(self.db)
        self.put(ALL_KEYS[(pick + 1) % len(ALL_KEYS)], b"in the active WAL")
        named = [wal_path(PATH, n) for n in sorted(self.db._versions.current.wals)]
        image = self.env.fork(durable_only=True)
        kds, counter = self.kds.fork(), self.counter.fork()
        expected = {key: self.oracle.get(key) for key in ALL_KEYS}
        self.unpark_flush()
        victim, other = named[pick % 2], named[1 - pick % 2]
        for attack in WAL_ATTACKS:
            env = image.fork(durable_only=False)
            damage(env, attack, victim, other, pick)
            options = self._options(
                env=env, crypto_provider=self._provider("adversary-1", kds.fork()),
                wal_buffer_size=DEFAULT_WAL_BUFFER, trusted_counter=counter.fork(),
            )
            for open_store in (ReadOnlyInstance, DB):
                try:
                    store = open_store(PATH, options)
                except (RollbackError, CorruptionError) as exc:
                    assert attack != "swap" or isinstance(exc, AuthenticationError), exc
                    continue
                with store:
                    assert attack != "swap", "a swapped WAL was replayed"
                    got = {key: store.get(key) for key in ALL_KEYS}
                    assert got == expected, attack

    # -- the property ---------------------------------------------------------

    @rule(
        start=BOUNDS,
        end=st.none() | BOUNDS,
        limit=st.none() | st.integers(min_value=0, max_value=30),
        snapshot=st.none() | st.integers(min_value=0, max_value=1_000),
    )
    def scans_agree_with_the_oracle(self, start, end, limit, snapshot):
        seq, at = self._live_snapshot(snapshot)
        opts = ReadOptions(snapshot=seq)
        expected = self.oracle.scan(start, end, limit, at)
        assert self.db.scan(start, end, limit, opts) == expected, "DB.scan"
        cursor = self.db.iterator(start, end, opts)
        assert list(itertools.islice(cursor, limit)) == expected, "DB.iterator"
        if at is None:  # a read-only instance has no snapshots: it IS one
            self.readonly.refresh()
            got = self.readonly.scan(start, end, limit)
            assert got == expected, "ReadOnlyInstance.scan"

    @rule(
        keys=st.lists(KEYS, min_size=1, max_size=8),
        snapshot=st.none() | st.integers(min_value=0, max_value=1_000),
    )
    def gets_agree_with_the_oracle(self, keys, snapshot):
        seq, at = self._live_snapshot(snapshot)
        opts = ReadOptions(snapshot=seq)
        expected = {key: self.oracle.get(key, at) for key in keys}
        assert {key: self.db.get(key, opts) for key in keys} == expected, "DB.get"
        assert self.db.multi_get(keys, opts) == expected, "DB.multi_get"
        if at is None:
            self.readonly.refresh()
            got = {key: self.readonly.get(key) for key in keys}
            assert got == expected, "ReadOnlyInstance.get"

    @invariant()
    def levels_are_sorted_runs(self):
        """What makes chaining a level legal."""
        levels = self.db._versions.current.levels
        for files in levels[1:]:
            for left, right in zip(files, files[1:]):
                assert left.largest < right.smallest


#: The machine for each scheme (None: plaintext).
MACHINES = {
    scheme: type(f"ScanModel[{scheme or 'none'}]", (ScanModel,), {"scheme": scheme})
    for scheme in (None, "shake-ctr", "shake-etm")
}


def _machine(scheme):
    """40 examples a machine on every commit; the ``soak`` profile's budget
    (``--hypothesis-profile=soak``, see conftest.py) when it is loaded.  The
    budget must move a file at least once, or no rule met a moved file; drop
    a shadowed version in a flush, or no snapshot read across one; and cache
    a flushed block, or no read met a warmed one."""
    soak = settings.get_current_profile_name() == "soak"
    case = MACHINES[scheme].TestCase
    case.settings = settings(
        max_examples=settings.default.max_examples if soak else 40,
        stateful_step_count=40,
        deadline=None,
    )
    run = case.runTest

    @functools.wraps(run)
    def runTest(self):
        before = {name: tally[scheme] for name, tally in TALLIES.items()}
        run(self)
        assert {
            name for name, tally in TALLIES.items() if tally[scheme] == before[name]
        } == set(), "a tallied engine counter never moved"

    case.runTest = runTest
    return case


TestScanModelPlaintext = _machine(None)
TestScanModelShakeCtr = _machine("shake-ctr")
TestScanModelShakeEtm = _machine("shake-etm")


@contextlib.contextmanager
def booted(scheme, style=COMPACTION_LEVELED, served=False):
    """One machine outside Hypothesis, for a deterministic sequence."""
    model = MACHINES[scheme]()
    try:
        model.boot(style, served=served)
        yield model
    finally:
        model.teardown()


@pytest.mark.parametrize("scheme", [None, "shake-ctr", "shake-etm"])
def test_a_snapshot_read_looks_past_a_block_of_newer_versions(scheme):
    """The versions of one key fill more than a block, every one newer than
    the snapshot, and the flush keeps only the newest: the snapshot reads
    its tombstone from the memtable its view pinned, not a miss that falls
    through to the older file.  (A file holding the versions themselves is
    ``test_sst.py``'s.)"""
    with booted(scheme) as model:
        db = model.db
        db.put(b"k", b"old")
        db.flush()
        db.delete(b"k")
        snap = db.snapshot()
        for i in range(12):
            db.put(b"k", b"new-%02d" % i)
        assert db.get(b"k", ReadOptions(snapshot=snap)) is None  # memtable
        db.flush()
        assert db.stats.counter("db.compactions").value == 0
        opts = ReadOptions(snapshot=snap)
        assert db.get(b"k", opts) is None
        assert db.multi_get([b"k"], opts) == {b"k": None}
        assert db.scan(opts=opts) == []
        assert db.get(b"k") == b"new-11"


@pytest.mark.parametrize("restart", ["reopen", "crash"])
@pytest.mark.parametrize("scheme", [None, "shake-ctr", "shake-etm"])
def test_wal_replay_keeps_what_a_snapshot_saw(scheme, restart):
    """put -> snapshot -> reopen, or a kill at ``wal:after_rotate`` -> get
    at the snapshot: the log's last record comes back, under the sequence
    number it was written with."""
    with booted(scheme) as model:
        model.put(b"k01", b"old")
        model.put(b"k02", b"last")
        model.snapshot()
        if restart == "reopen":
            model.reopen()
        else:
            model.crash_at("wal:after_rotate")
        assert model.snapshots, "no compaction ran: the snapshot is exact"
        model.gets_agree_with_the_oracle([b"k01", b"k02"], snapshot=0)
        model.gets_agree_with_the_oracle(ALL_KEYS, snapshot=None)


def damage(env, attack, victim, other, pick):
    """One of ``WAL_ATTACKS`` on the sealed log ``victim``; ``other`` is
    another named WAL of the store, ``pick`` chooses where."""
    raw, units = env.read_file(victim), log_units(env, victim)
    start, size = units[pick % len(units)]
    if attack == "delete":
        env.delete_file(victim)
    elif attack == "cut_at_a_unit":
        env.write_file(victim, raw[:[*units, (len(raw), 0)][pick % (len(units) + 1)][0]])
    elif attack == "cut_inside_a_unit":
        env.write_file(victim, raw[:start + 1 + pick % (size - 1)])
    elif attack == "swap":
        env.write_file(victim, env.read_file(other))
        env.write_file(other, raw)
    else:  # splice
        theirs = log_units(env, other)
        their_start, their_size = theirs[pick % len(theirs)]
        unit = env.read_file(other)[their_start:their_start + their_size]
        env.write_file(victim, raw[:start] + unit + raw[start + size:])


def log_units(env, path):
    """``(start, size)`` of every whole unit of a sealed log, in file
    offsets: its ``sealed_len fixed32`` prefix and the sealed bytes."""
    raw = env.read_file(path)
    offset, units = decode_envelope(raw[:MAX_ENVELOPE_SIZE]).header_size, []
    while offset + 4 <= len(raw):
        size = 4 + decode_fixed32(raw, offset)[0]
        units.append((offset, size))
        offset += size
    return units


READ_ALL = [("get", ALL_KEYS), ("scan", b"", None, None)]
#: On the engine, over cold files: nothing is written after the flush, so
#: what a failed flush left behind meets the next ordinary write.  Seed 0
#: lets three syncs through under ``sync_faults``: the MANIFEST's fails.
DIRECT_WINDOW = (0, [("write", [(ALL_KEYS[2], b"direct")]), *READ_ALL, *READ_ALL])
#: Over the wire: a write after the flush, so a flush the fault failed
#: leaves it to be answered DEGRADED.  Seed 2 fails the first sync.
SERVED_WINDOW = (2, [*READ_ALL, ("write", [(ALL_KEYS[1], b"served")]), *READ_ALL])


def injected(model) -> int:
    """Faults the machine's injectors have counted so far."""
    env, kds = model.env, model.kds
    return (
        env.injected_failures + env.injected_read_failures
        + env.injected_bit_flips + kds.injected_failures
    )


@pytest.mark.parametrize("kind, scheme", [
    pytest.param(kind, scheme, id=f"{kind}-{scheme or 'plaintext'}")
    for kind in sorted(FAULTS) for scheme in MACHINES
    if (kind, scheme) not in NOT_DRAWN
])
def test_fault_window_of_every_kind(kind, scheme):
    """The fault window rule's body over a cold tree two levels deep with a
    memtable to flush, on the engine and then through a server, and the
    engine keeps what is written after each.  Every case injects."""
    with booted(scheme) as model:
        for generation in range(4):
            model.write([(key, b"%d-" % generation + key) for key in ALL_KEYS])
            model.flush("picker")
        model.write([(key, None) for key in ALL_KEYS[::4]])
        model.reopen()  # every file cold: the window's reads open them
        for served, (seed, steps) in ((False, DIRECT_WINDOW), (True, SERVED_WINDOW)):
            model.served = served
            model.run_fault_window(kind, steps, seed)
            model.put(ALL_KEYS[0], b"after a window")
        assert injected(model) >= 1
        model.reopen()
        model.gets_agree_with_the_oracle(ALL_KEYS, snapshot=None)


@pytest.mark.parametrize("scheme", [
    pytest.param(scheme, id=scheme or "plaintext") for scheme in MACHINES
])
def test_one_flipped_bloom_bit_is_never_an_answer(scheme):
    """A tombstone in the newest file over an old value in an older one,
    then, on the device, the one bit of the newest file's bloom filter that
    the key probes is flipped: a read raises or finds the tombstone, never
    the old value: a tag, or without one the bloom unit's CRC trailer,
    catches the flip before the filter is believed."""
    with booted(scheme) as model:
        key = ALL_KEYS[0]
        model.put(key, b"old")
        model.flush("picker")
        model.delete(key)
        model.flush("picker")
        newest = max((meta for __, meta in model.db.live_files()), key=lambda m: m.number)
        reader = model.db._tables.reader(newest)
        encoded = reader.bloom.encode()
        head = len(encoded) - len(reader.bloom)  # the probe count before the bits
        for bit in range(8 * head, 8 * len(encoded)):
            flipped = bytearray(encoded)
            flipped[bit // 8] ^= 1 << bit % 8
            if not BloomFilter.decode(bytes(flipped)).may_contain(key):
                break
        else:
            pytest.fail("no single bloom bit hides the key")
        __, offset, size, ___ = reader._index[-1]  # the bloom block follows
        path = sst_path(PATH, newest.number)
        stored = bytearray(model.env.read_file(path))
        stored[reader.envelope.header_size + offset + size + bit // 8] ^= 1 << bit % 8
        model.env.write_file(path, bytes(stored))
        model.reopen()  # a cold reader
        try:
            assert model.db.get(key) is None
        except CorruptionError:  # AuthenticationError is one
            pass


@pytest.mark.parametrize("scheme", ["shake-ctr", "shake-etm"])
def test_every_attack_on_a_named_wal(scheme):
    """The adversary's WAL rule on each of the two named WALs, over a tree."""
    with booted(scheme) as model:
        model.write([(key, b"v-" + key) for key in ALL_KEYS])
        model.flush("picker")
        for pick in range(4):
            model.tamper_with_a_named_wal(pick)
