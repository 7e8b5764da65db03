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
point and recovers from what was durable there (see its docstring).

One machine per scheme; each example draws the rest of its deployment: the
adaptive compaction controller (on a virtual clock the machine advances)
or the static picker, and the tracer on or off.

This is ROADMAP's model-test item: ``Oracle`` is the dict with snapshots
that item asks for.  Grow this file; do not start another.
"""

import contextlib
import itertools
import random
import threading
from dataclasses import replace

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.dist.readonly import ReadOnlyInstance
from repro.env.mem import MemEnv
from repro.errors import AuthenticationError, ReproError
from repro.integrity.counter import MemoryTrustedCounter
from repro.keys.kds import InMemoryKDS
from repro.lsm.compaction import make_picker
from repro.lsm.db import DB, SP_COMPACT_AFTER_OUTPUTS, SP_FLUSH_BEFORE_SST
from repro.lsm.filename import sst_path
from repro.lsm.options import Options, ReadOptions
from repro.lsm.write_batch import WriteBatch
from repro.obs.controller import ControllerConfig
from repro.shield import ShieldOptions, open_shield_db
from repro.tools.dek_audit import audit_directory
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
#: by now: this file imports the DB, the SHIELD provider and the controller).
CRASH_POINTS = SYNC.declared()
#: DEKs one crash may strand: the ``dek:before_retire`` window itself, plus
#: provisioning between the env fork and the KDS fork inside the capture.
MAX_LEAKED_DEKS = 3
#: The adaptive axis: a controller that flips on the first decision the
#: signals support.  Decisions fall due once a virtual second, and only the
#: machine moves the clock, so a flip (and the merge it makes due) happens
#: inside a step that waits for background work, never under a read.
ADAPTIVE = ControllerConfig(
    tick_interval_s=1.0,
    confirm_ticks=1,
    dwell_s=0.0,
    max_flips_per_min=1_000_000,
    write_rate_floor=1.0,
)
#: A crash drive's write buffer: two drive batches fill it, so the write
#: that rotates the WAL can be the one in flight at the kill.
DRIVE_WRITE_BUFFER = 2048
DRIVE = ("reopen", "write", "write", "flush", "write", "compact")
MAX_DRIVE_STEPS = 4 * len(DRIVE)


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
        self.env, self.kds, self.clock = MemEnv(), InMemoryKDS(), VirtualClock()
        # SHIELD++ freshness rides along, so crashes cover the counter:* points.
        self.counter = None if self.scheme is None else MemoryTrustedCounter()
        self.adaptive = False
        self.snapshots: list[tuple[int, int]] = []  # (engine seq, oracle token)
        self.oracle = Oracle()
        self.parked: threading.Event | None = None
        self.in_flight = None  # the batch between its write call and its ack
        self.leaked_by_last_crash = 0
        self.db = self.readonly = None
        self._compactions = 0
        self._drive_batches = itertools.count()
        self._exit = contextlib.ExitStack()

    def boot(self, adaptive=False, traced=False):
        """Open the deployment: a writer and a read-only instance over it."""
        self.adaptive = adaptive
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
            adaptive_compaction=self.adaptive,
            adaptive_config=ADAPTIVE,
        ), **overrides)

    def _open(self, **overrides):
        self.db = None  # a kill inside recovery leaves nothing to close
        if self.scheme is None:
            db = DB(PATH, self._options(**overrides))
        else:
            # WAL buffer 0: a read-only instance sees a write once it is in
            # the WAL file, not while it sits in the primary's seal buffer.
            db = open_shield_db(PATH, ShieldOptions(
                kds=self.kds, scheme=self.scheme, wal_buffer_size=0,
                trusted_counter=self.counter,
            ), self._options(**overrides))
        # Recovery flushes the replayed WAL to L0 and schedules whatever
        # compaction that makes due: quiescent before the next rule.
        db.wait_for_compaction()
        self.db, self._compactions = db, 0
        self._note_compactions()

    def _open_readonly(self):
        provider = None
        if self.scheme is not None:
            provider = ShieldOptions(
                kds=self.kds, scheme=self.scheme, server_id="reader-1"
            ).build_provider()
        return ReadOnlyInstance(
            PATH, self._options(trusted_counter=self.counter), provider=provider
        )

    def _reopen_both(self):
        """Fresh table sets: no cached reader, no quarantine mark."""
        self.readonly.close()
        self.db.close()
        self._open()
        self.readonly = self._open_readonly()

    def _note_compactions(self):
        """The engine's documented simplification (``DB.snapshot``): a
        compaction keeps only the newest version of each key, so a snapshot
        is exact only until one runs."""
        ran = self.db.stats.counter("db.compactions").value
        if ran != self._compactions:
            self.snapshots.clear()
            self._compactions = ran

    def _live_snapshot(self, pick):
        """``(engine seq, oracle token)`` of a live snapshot, or Nones."""
        self._note_compactions()
        if pick is None or not self.snapshots:
            return None, None
        return self.snapshots[pick % len(self.snapshots)]

    def teardown(self):
        if self.parked is not None:
            self.parked.set()
        SYNC.clear()
        for store in (self.readonly, self.db):
            if store is not None:
                store.close()
        self._exit.close()

    # -- writes ---------------------------------------------------------------

    @initialize(
        adaptive=st.booleans(),
        traced=st.booleans(),
        generations=st.lists(
            st.tuples(st.integers(0, 2**32), st.integers(8, len(ALL_KEYS))),
            max_size=12,
        ),
    )
    def grow_a_tree(self, adaptive, traced, generations):
        """Boot the deployment the example drew, then start from a tree, not
        from nothing: each generation rewrites a seeded sample of the key
        space (one key in five deleted) and is flushed, and compacted when
        due, so older versions of a key sit in deeper levels.  Seeds, not
        drawn lists: Hypothesis draws short lists, and short generations
        never fill a level."""
        self.boot(adaptive, traced)
        for seed, size in generations:
            rng = random.Random(seed)
            self.write([
                (key, None if rng.random() < 0.2 else rng.randbytes(rng.randrange(25)))
                for key in rng.sample(ALL_KEYS, size)
            ])
            self._settle()

    @rule(batch=BATCHES)
    def write(self, batch):
        writes = WriteBatch()
        for key, value in batch:
            if value is None:
                writes.delete(key)
            else:
                writes.put(key, value)
        self.in_flight = batch
        self.db.write(writes)
        self.oracle.write(batch)  # acked; a kill reads in_flight before this
        self.in_flight = None

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.write([(key, value)])

    @rule(key=KEYS)
    def delete(self, key):
        self.write([(key, None)])

    @rule()
    def snapshot(self):
        self.snapshots.append((self.db.snapshot(), self.oracle.snapshot()))

    @precondition(lambda self: self.parked is None)
    @rule(key=KEYS, before=st.none() | VALUES, versions=st.integers(4, 16))
    def bury_a_snapshot_under_versions(self, key, before, versions):
        """One version of ``key`` in the memtable, a snapshot, then enough
        newer versions to fill whole blocks, then a flush: the version the
        snapshot sees lands blocks behind the first one ``key`` is in."""
        self.write([(key, before)])
        self.snapshot()
        for version in range(versions):
            self.put(key, b"v%d" % version)
        self._settle()
        if self.snapshots:  # no compaction ran: the snapshot is still exact
            seq, at = self.snapshots[-1]
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

    @precondition(lambda self: self.parked is None and len(self.db._mem) > 0)
    @rule()
    def park_flush(self):
        """From here to ``unpark_flush`` scans see an immutable memtable."""
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
        the sequence numbers it was written with (snapshots stay exact, until
        the L0 file recovery adds makes a compaction due)."""
        self.db.close()
        self._open()

    def _settle(self, full=False):
        self.clock.advance(1.0)  # the controller's next decision falls due
        self.db.flush()
        self.db.wait_for_compaction()
        if full:
            self.db.force_compaction()
        self._note_compactions()

    # -- crashes --------------------------------------------------------------

    def reaches(self, point: str) -> bool:
        """Whether this deployment ever passes ``point``: no DEK or counter
        without SHIELD, no controller without the adaptive policy."""
        kind = point.split(":")[0]
        if kind in ("dek", "counter"):
            return self.scheme is not None
        return kind != "controller" or self.adaptive

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
            merged = SYNC.hits(SP_COMPACT_AFTER_OUTPUTS) > 0
        finally:
            SYNC.clear()
            self.readonly.close()
            if self.db is not None:
                self.db.simulate_crash()
        assert image, f"{point} never fired in {MAX_DRIVE_STEPS} steps"
        if merged:  # a merge may have installed before the kill
            self.snapshots.clear()

        self.env, self.kds = image["env"], image["kds"]
        self.counter, self.in_flight = image["counter"], None
        self.oracle.rewind(image["at"])
        without = {key: self.oracle.get(key) for key in ALL_KEYS}
        self._open()
        self.readonly = self._open_readonly()
        got = {key: self.db.get(key) for key in ALL_KEYS}
        if image["in_flight"] is not None and got != without:
            self.oracle.write(image["in_flight"])
        assert got == {key: self.oracle.get(key) for key in ALL_KEYS}, (
            f"{point}: an acked write lost, a delete undone or a batch torn"
        )
        assert {key: self.readonly.get(key) for key in ALL_KEYS} == got
        self.leaked_by_last_crash = self._audit() - leaked
        assert self.leaked_by_last_crash <= MAX_LEAKED_DEKS

    def _drive(self, image):
        """Ordinary steps until the armed point has fired.  The first reopens
        with a write buffer two drive batches deep, so a write may be what
        rotates the WAL (and be in flight at the kill)."""
        steps = itertools.islice(itertools.cycle(DRIVE), MAX_DRIVE_STEPS)
        for step in steps:
            self.clock.advance(1.0)
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

    # -- the adversary --------------------------------------------------------

    @precondition(lambda self: self.scheme is not None and self.parked is None
                  and self.db._versions.current.num_files() >= 2)
    @rule(pick=st.integers(0, 1_000), other=st.integers(0, 1_000))
    def substitute_a_live_sst_with_a_sibling(self, pick, other):
        """Authentic bytes under the wrong name pass every tag; the name's
        MANIFEST entry is what they fail.  Every reader that reaches the file
        raises and quarantines it; no reader returns what the oracle lacks."""
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

    # -- the property ---------------------------------------------------------

    @rule(
        start=BOUNDS,
        end=st.none() | BOUNDS,
        limit=st.none() | st.integers(min_value=1, max_value=30),
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

    @invariant()
    def the_picker_is_the_policy_in_force(self):
        """A flip installs the picker of the policy it reports."""
        policy = self.db.policy
        assert type(policy.picker) is type(make_picker(self.db.options, policy.style))


#: The machine for each scheme (None: plaintext).
MACHINES = {
    scheme: type(f"ScanModel[{scheme or 'none'}]", (ScanModel,), {"scheme": scheme})
    for scheme in (None, "shake-ctr", "shake-etm")
}


def _machine(scheme):
    case = MACHINES[scheme].TestCase
    case.settings = settings(
        max_examples=40, stateful_step_count=40, deadline=None
    )
    return case


TestScanModelPlaintext = _machine(None)
TestScanModelShakeCtr = _machine("shake-ctr")
TestScanModelShakeEtm = _machine("shake-etm")


@contextlib.contextmanager
def booted(scheme, adaptive=False):
    """One machine outside Hypothesis, for a deterministic sequence."""
    model = MACHINES[scheme]()
    try:
        model.boot(adaptive)
        yield model
    finally:
        model.teardown()


@pytest.mark.parametrize("scheme", [None, "shake-ctr", "shake-etm"])
def test_a_snapshot_read_looks_past_a_block_of_newer_versions(scheme):
    """The versions of one key straddle a block boundary and every one in
    the first block is newer than the snapshot: the file must read on into
    the next block, not report a miss that falls through to an older file."""
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
