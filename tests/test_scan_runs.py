"""A scan costs what it reads, as counts: merge sources, readers obtained
and blocks loaded -- for ``DB.scan``, ``DB.iterator`` and
``ReadOnlyInstance.scan`` over one sorted-run view (``scan_runs``).

Nothing here sleeps or times anything.  Readers obtained are counted by an
``Env`` wrapper (one ``new_random_access_file`` per SST open), blocks by
the block cache's own hit + miss counters (``DB``) or by metered SST reads
(``ReadOnlyInstance``, which has no block cache), merge sources by the
``db.scan_sources`` counter.
"""

import math
import threading

import pytest

from repro.dist.network import NetworkConfig, NetworkLink
from repro.dist.readonly import ReadOnlyInstance
from repro.dist.remote_env import RemoteEnv, StorageServer
from repro.env.base import EnvWrapper
from repro.env.mem import MemEnv
from repro.env.metered import MeteredEnv
from repro.errors import AuthenticationError, CorruptionError
from repro.keys.kds import InMemoryKDS
from repro.lsm.compaction import CompactionJob
from repro.lsm.db import DB
from repro.lsm.filename import sst_path
from repro.lsm.options import Options
from repro.lsm.sst import SSTReader
from repro.shield import ShieldOptions, open_shield_db
from repro.util.clock import VirtualClock
from repro.util.syncpoint import SYNC
from tests.test_adversarial_integrity import _flip_payload_byte
from tests.test_obs_e2e import traced
from tests.test_scan_model import park_flush

WAIT_S = 20.0
KEYS = [b"key-%05d" % i for i in range(0, 1200, 2)]  # odd numbers are gaps
VALUE = b"v" * 100
LIMIT = 20


class OpenCountingEnv(EnvWrapper):
    """Records every SST opened for reading; ``on_open`` runs inside the
    open (the test's window into who holds which lock meanwhile)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.opened: list[str] = []
        self.on_open = None

    def new_random_access_file(self, path):
        if path.endswith(".sst"):
            self.opened.append(path)
            if self.on_open is not None:
                self.on_open(path)
        return self.inner.new_random_access_file(path)


def _options(env, **overrides):
    settings = dict(
        env=env,
        write_buffer_size=1 << 20,  # flushes are explicit
        block_size=512,
        target_file_size=4 * 1024,
        level0_file_num_compaction_trigger=100,  # compactions are explicit
        max_background_jobs=1,
    )
    settings.update(overrides)
    return Options(**settings)


def _open(env, scheme=None, kds=None):
    if scheme is None:
        return DB("/db", _options(env))
    shield = ShieldOptions(kds=kds or InMemoryKDS(), scheme=scheme)
    return open_shield_db("/db", shield, _options(env))


def _one_level_store(env, scheme=None, kds=None):
    """One bottom-level run of >= 10 files, empty memtable, every reader
    cold (compaction outputs are not opened until something reads them)."""
    db = _open(env, scheme, kds)
    for key in KEYS:
        db.put(key, VALUE)
    db.force_compaction()
    files = db._versions.current.levels[-1]
    assert len(files) >= 10 and db.num_files_at_level(0) == 0
    assert len(db._mem) == 0 and not db._imm
    if isinstance(env, OpenCountingEnv):
        env.opened.clear()  # the compaction's own input
    return db, files


def _entries_per_block(db, meta) -> int:
    return math.ceil(meta.num_entries / len(db._tables.reader(meta)._index))


def _block_loads(db) -> int:
    return db._block_cache.hits + db._block_cache.misses


def _sources(db) -> int:
    return db.stats.counter("db.scan_sources").value


def _expected(start=b"", end=None, limit=None):
    keys = [k for k in KEYS if k >= start and (end is None or k < end)]
    return [(k, VALUE) for k in keys[:limit]]


def _gap_after(meta) -> bytes:
    """A key between ``meta`` and the next file of its level."""
    return meta.largest[:-1] + bytes([meta.largest[-1] + 1])


# -- DB.scan: sources, readers, blocks ---------------------------------------


def test_limited_scan_opens_at_most_two_files_and_reads_only_its_blocks():
    env = OpenCountingEnv(MemEnv())
    db, files = _one_level_store(env)
    try:
        per_block = _entries_per_block(db, files[0])
        start = files[3].smallest
        env.opened.clear()
        loads, sources = _block_loads(db), _sources(db)
        assert db.scan(start, None, LIMIT) == _expected(start, None, LIMIT)
        assert len(env.opened) <= 2
        assert _block_loads(db) - loads <= math.ceil(LIMIT / per_block) + 1
        # An empty memtable and one non-empty level: two sources, whatever
        # the number of files past ``start``.
        assert _sources(db) - sources == 2
    finally:
        db.close()


def test_spans_separate_many_runs_from_many_blocks():
    db, files = _one_level_store(MemEnv())
    try:
        per_block = _entries_per_block(db, files[3])
        start = files[3].smallest
        with traced() as sink:
            db.scan(start, None, LIMIT)
            next(db.iterator(start))
        spans = {span.name: span.attributes for span in sink.spans()}
        scan, cursor = spans["db.scan"], spans["db.iterator"]
        assert (scan["results"], scan["sources"]) == (LIMIT, 2)
        assert scan["files_opened"] == math.ceil(LIMIT / files[3].num_entries)
        blocks = scan["block_cache_misses"] + scan.get("block_cache_hits", 0)
        assert blocks <= math.ceil(LIMIT / per_block) + 1
        # The iterator's span ends at creation, before the cursor gets any
        # reader: it has the sources, and readers come as ``scan``'s do.
        assert cursor == {"sources": 2}
    finally:
        db.close()


def test_scan_sources_are_memtables_l0_files_and_levels():
    env = MemEnv()
    db, files = _one_level_store(env)
    release = None
    try:
        # A second non-empty level: two bottom files rewritten at level 3.
        job = CompactionJob(inputs={6: list(files[:2])}, output_level=3)
        db._run_merge_compaction(job)
        assert db.num_files_at_level(3) >= 1
        # Three L0 files, the first one wholly below the scan's start.
        for keys in ([b"a"], [b"key-00500", b"zz"], [b"key-00001", b"zzz"]):
            for key in keys:
                db.put(key, b"l0")
            db.flush()
        assert db.num_files_at_level(0) == 3
        # An immutable memtable (its flush parked) and a live one.
        db.put(b"key-00003", b"imm")
        release = park_flush(db)
        db.put(b"key-00005", b"mem")
        assert len(db._imm) == 1

        before = _sources(db)
        pairs = db.scan(b"key-00000", None, 4)
        # 1 memtable + 1 immutable + 2 overlapping L0 files + 2 levels.
        assert _sources(db) - before == 1 + 1 + 2 + 2
        assert pairs == [
            (b"key-00000", VALUE), (b"key-00001", b"l0"),
            (b"key-00002", VALUE), (b"key-00003", b"imm"),
        ]
        # Past every level's last key only memtables and L0 are left.
        before = _sources(db)
        assert db.scan(b"key-99999", None, 4) == [(b"zz", b"l0"), (b"zzz", b"l0")]
        assert _sources(db) - before == 1 + 1 + 2
    finally:
        if release is not None:
            release.set()
        SYNC.clear()
        db.close()


@pytest.mark.parametrize("case", ["gap", "past-end", "end-in-first", "to-the-end"])
def test_scan_edges_of_a_chained_run(case):
    env = OpenCountingEnv(MemEnv())
    db, files = _one_level_store(env)
    try:
        if case == "gap":  # starts between files 4 and 5
            args, opened = (_gap_after(files[4]), None, 3), 1
        elif case == "past-end":
            args, opened = (_gap_after(files[-1]), None, LIMIT), 0
        elif case == "end-in-first":
            args, opened = (b"", files[0].smallest[:-1] + b"9", None), 1
        else:  # no limit: every file from the 8th on, each opened once
            args, opened = (files[7].smallest, None, None), len(files) - 7
        before = _sources(db)
        assert db.scan(*args) == _expected(*args)
        assert len(env.opened) == len(set(env.opened)) == opened
        assert _sources(db) - before == (1 if case == "past-end" else 2)
        assert list(db.iterator(args[0], args[1]))[:args[2]] == _expected(*args)
    finally:
        db.close()


# -- per-file attribution inside a chained run -------------------------------


def _flip_data_byte(env, path):
    """One bit, a third of the way into the payload: inside a data block."""
    _flip_payload_byte(env, path, skew=1 / 3)


@pytest.mark.parametrize("reader", ["scan", "iterator"])
def test_tampered_third_file_of_a_run_is_the_one_quarantined(reader):
    env = MemEnv()
    db, files = _one_level_store(env, "shake-etm")
    try:
        _flip_data_byte(env, sst_path("/db", files[2].number))
        served = []
        with pytest.raises(AuthenticationError):
            if reader == "scan":
                db.scan()
            else:
                for pair in db.iterator():
                    served.append(pair)
        assert db.quarantined_files() == [files[2].number]
        # What an iterator served before the failure is right, never wrong.
        assert served == _expected()[:len(served)]
        if reader == "iterator":
            assert len(served) >= files[0].num_entries + files[1].num_entries
    finally:
        db.close()


@pytest.mark.parametrize("reader", ["scan", "iterator"])
def test_corrupt_block_under_stream_cipher_is_a_crc_error_not_a_quarantine(reader):
    env = MemEnv()
    db, files = _one_level_store(env, "shake-ctr")
    try:
        _flip_data_byte(env, sst_path("/db", files[2].number))
        with pytest.raises(CorruptionError):
            db.scan() if reader == "scan" else list(db.iterator())
        assert db.quarantined_files() == []
        # The files before it still serve.
        end = files[2].smallest
        assert db.scan(b"", end) == _expected(b"", end)
    finally:
        db.close()


# -- DB.iterator: pinned at creation, opened lazily outside the mutex --------


def test_cold_iterator_opens_readers_without_holding_the_engine_mutex():
    env = OpenCountingEnv(MemEnv())
    db, files = _one_level_store(env)
    writers = []

    def put_from_another_thread(path):
        env.on_open = None
        # (An overwrite with the same value: "may or may not be visible".)
        writer = threading.Thread(target=db.put, args=(KEYS[0], VALUE))
        writer.start()
        writer.join(WAIT_S)
        writers.append(writer.is_alive())

    paths = [sst_path("/db", meta.number) for meta in files]
    try:
        env.on_open = put_from_another_thread
        cursor = db.iterator()
        assert env.opened == []  # a reader is got when the cursor reaches it
        first = next(cursor)
        assert writers == [False]  # the put finished while a file was opening
        assert env.opened == paths[:1]
        # A compaction that rewrites every file does not end the cursor: its
        # view holds them until it is done ...
        db.force_compaction()
        db.wait_for_compaction()
        assert all(env.file_exists(path) for path in paths)
        assert [first, *cursor] == _expected()
        # ... and then they go.
        db.wait_for_compaction()
        assert not any(env.file_exists(path) for path in paths)
    finally:
        db.close()


def test_iterator_recaptures_when_a_file_vanishes_before_it_is_opened():
    env = OpenCountingEnv(MemEnv())
    db, files = _one_level_store(env)

    def compact_away(path):
        env.on_open = None
        compactor = threading.Thread(target=db.force_compaction)
        compactor.start()
        compactor.join(WAIT_S)
        assert not compactor.is_alive()

    try:
        # The captured version is compacted away as the cursor opens its
        # first file: the view it captured still holds every file.
        env.on_open = compact_away
        assert list(db.iterator()) == _expected()
    finally:
        db.close()


# -- ReadOnlyInstance.scan over the DS link ----------------------------------


def test_readonly_scan_reads_over_the_link_only_what_it_returns():
    storage, kds = StorageServer(), InMemoryKDS()
    db, files = _one_level_store(storage.env, "shake-ctr", kds)
    db.close()

    link = NetworkLink(NetworkConfig(rtt_s=0.0005), VirtualClock())
    opens = OpenCountingEnv(RemoteEnv(storage, link))
    metered = MeteredEnv(opens)
    provider = ShieldOptions(kds=kds, server_id="reader-1").build_provider()
    options = _options(metered)
    sst_reads = metered.stats.counter("io.read.ops.sst")

    # What one open costs on the link, measured on a reader of our own.
    before = sst_reads.value
    probe = SSTReader(metered, sst_path("/db", files[0].number), provider, options)
    reads_per_open = sst_reads.value - before
    per_block = math.ceil(files[0].num_entries / len(probe._index))
    probe.close()

    with ReadOnlyInstance("/db", options, provider=provider) as readonly:
        opens.opened.clear()
        before, trips = sst_reads.value, link.round_trips
        start = files[3].smallest
        assert readonly.scan(start, None, LIMIT) == _expected(start, None, LIMIT)
        assert len(opens.opened) <= 2
        blocks = sst_reads.value - before - len(opens.opened) * reads_per_open
        assert 0 < blocks <= math.ceil(LIMIT / per_block) + 1
        # One round trip per open (the ping) and per read, nothing else.
        assert link.round_trips - trips == (
            len(opens.opened) * (reads_per_open + 1) + blocks
        )
        # A second scan of the same range reuses the readers it has.
        opens.opened.clear()
        assert readonly.scan(start, None, LIMIT) == _expected(start, None, LIMIT)
        assert opens.opened == []
        # The edges, against the same oracle.
        for args in (
            (_gap_after(files[4]), None, 3),
            (_gap_after(files[-1]), None, LIMIT),
            (b"", files[0].smallest[:-1] + b"9", None),
            (files[7].smallest, None, None),
        ):
            assert readonly.scan(*args) == _expected(*args)
