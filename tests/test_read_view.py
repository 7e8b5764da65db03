"""One read view: a read pins what it reads.

``DB.snapshot()`` is a pinned view, so a read at it is exact across any
compaction, merged here or on an offloaded worker; a compaction that retires
every input DEK while reads run costs them no retry and no wrong answer; a
``multi_get`` reads one view at one sequence, so a write batch is never seen
half applied; and once nothing holds an obsolete file, the next
``wait_for_compaction()`` unlinks it and retires its DEK.
"""

import contextlib
import itertools
import random
import sys
import threading
import time

import pytest

from repro.dist.compaction_service import CompactionService
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.filecrypto import PlaintextCryptoProvider
from repro.lsm.filename import parse_file_name
from repro.lsm.options import Options, ReadOptions
from repro.lsm.write_batch import WriteBatch
from repro.obs.trace import TRACER
from repro.shield import ShieldOptions, open_shield_db

PATH = "/view"
SCHEMES = [None, "shake-ctr", "shake-etm"]
READ_SPANS = ("db.get", "db.multi_get", "db.scan", "db.iterator")


def _open(scheme, route="local"):
    """A DB under ``scheme`` (None: plaintext) whose merges run here or, with
    ``route="offloaded"``, on a ``CompactionService`` with its own KDS
    identity.  Returns ``(db, env, kds)``."""
    env, kds = MemEnv(), InMemoryKDS()
    options = Options(env=env, level0_file_num_compaction_trigger=100)
    if route == "offloaded":
        provider = PlaintextCryptoProvider() if scheme is None else ShieldOptions(
            kds=kds, scheme=scheme, server_id="compaction-1"
        ).build_provider()
        options.compaction_service = CompactionService(env, provider, options)
    if scheme is None:
        return DB(PATH, options), env, kds
    shield = ShieldOptions(kds=kds, scheme=scheme, server_id="server-1")
    return open_shield_db(PATH, shield, options), env, kds


def _ssts(env) -> set[int]:
    return {
        parsed[1] for name in env.list_dir(PATH)
        if (parsed := parse_file_name(name)) and parsed[0] == "sst"
    }


def _live(db) -> set[int]:
    return {meta.number for __, meta in db.live_files()}


@pytest.mark.parametrize("route", ["local", "offloaded"])
@pytest.mark.parametrize("before", ["memtable", "flushed"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s or "plaintext")
def test_a_snapshot_reads_what_it_saw_across_a_compaction(scheme, before, route):
    """``put k=v1; put d=x; s = snapshot(); put k=v2; delete d; flush;
    force_compaction``: every reader at ``s`` still sees ``k=v1, d=x`` --
    from the memtable the snapshot holds, or (flushed first) from the files
    the merge made obsolete, which stay until the snapshot is released."""
    db, env, kds = _open(scheme, route)
    with db:
        db.put(b"k", b"v1")
        db.put(b"d", b"x")
        if before == "flushed":
            db.flush()
        held = _ssts(env)
        snap = db.snapshot()
        db.put(b"k", b"v2")
        db.delete(b"d")
        db.flush()
        inputs = [meta.dek_id for __, meta in db.live_files()]
        db.force_compaction()
        db.wait_for_compaction()
        if route == "offloaded":
            assert db.options.compaction_service.stats.counter("service.jobs").value
        opts, expected = ReadOptions(snapshot=snap), [(b"d", b"x"), (b"k", b"v1")]
        assert db.get(b"k", opts) == b"v1"
        assert db.multi_get([b"k", b"d"], opts) == dict(expected)
        assert db.scan(opts=opts) == expected
        assert list(db.iterator(opts=opts)) == expected
        assert db.scan() == [(b"k", b"v2")]
        assert held <= _ssts(env) and not held & _live(db)  # obsolete, pinned

        snap.release()
        snap.release()  # a second release is nothing
        db.wait_for_compaction()
        assert _ssts(env) == _live(db)
        if scheme is not None:  # every input's DEK retired with its file
            assert not any(kds.knows(dek_id) for dek_id in inputs)


def test_a_snapshot_is_a_context_manager_and_an_int():
    db, env, __ = _open(None)
    with db:
        db.put(b"k", b"v1")
        db.flush()
        with db.snapshot() as snap:
            assert isinstance(snap, int) and snap == db.committed_sequence()
            db.put(b"k", b"v2")
            db.flush()
            db.force_compaction()
            db.wait_for_compaction()
            assert db.get(b"k", ReadOptions(snapshot=snap)) == b"v1"
            assert _ssts(env) != _live(db)
        db.wait_for_compaction()
        assert _ssts(env) == _live(db)


def test_multi_get_never_tears_a_write_batch():
    """One writer commits ``{a, m, z: i}`` as one batch, over and over, while
    ``multi_get([a, m, z])`` runs: every answer has one ``i`` for all three."""
    db, __, ___ = _open(None)
    stop = threading.Event()

    def write():
        for i in itertools.count():
            if stop.is_set():
                return
            value = b"%d" % i
            db.write(WriteBatch().put(b"a", value).put(b"m", value).put(b"z", value))

    writer = threading.Thread(target=write)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    torn, calls = [], 0
    with db:
        writer.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                got = db.multi_get([b"a", b"m", b"z"])
                calls += 1
                if len(set(got.values())) != 1:
                    torn.append(got)
        finally:
            stop.set()
            writer.join(10)
            sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert calls > 0
    assert torn == [], f"{len(torn)} torn of {calls}"


class _RetryCount:
    """A tracer sink: the read spans it saw, and the retries they record."""

    def __init__(self):
        self.reads = self.retries = 0

    def emit(self, span) -> None:
        if span.name in READ_SPANS:
            self.reads += 1
            self.retries += span.attributes.get("retries", 0)


@contextlib.contextmanager
def _counting_retries():
    previous = (TRACER.enabled, list(TRACER._sinks), TRACER.sample_rate)
    sink = _RetryCount()
    TRACER.configure(enabled=True, sinks=[sink], sample_rate=1.0)
    try:
        yield sink
    finally:
        enabled, sinks, rate = previous
        TRACER.configure(enabled=enabled, sinks=sinks, sample_rate=rate)


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s or "plaintext")
def test_reads_beside_a_compaction_loop_are_right_and_never_retry(scheme):
    """One thread runs ``force_compaction()`` in a loop -- every pass rewrites
    every file and retires every input DEK -- while ``get``, ``multi_get``,
    ``scan`` and ``iterator`` read: each is right, and none retries."""
    db, env, __ = _open(scheme)
    keys = [b"key-%04d" % i for i in range(120)]
    expected = {}
    with db:
        for generation in range(3):
            for i, key in enumerate(keys):
                if (i + generation) % 7:
                    db.put(key, b"%d-" % generation + key)
                    expected[key] = b"%d-" % generation + key
                else:
                    db.delete(key)
                    expected.pop(key, None)
            db.flush()
        ordered = sorted(expected.items())
        stop, compactions = threading.Event(), []

        def compact():
            while not stop.is_set():
                db.force_compaction()
                compactions.append(1)

        rng = random.Random(7)
        compactor = threading.Thread(target=compact)
        with _counting_retries() as counted:
            compactor.start()
            try:
                deadline = time.monotonic() + 1.0
                while time.monotonic() < deadline or len(compactions) < 5:
                    key = rng.choice(keys)
                    assert db.get(key) == expected.get(key)
                    sample = rng.sample(keys, 6)
                    assert db.multi_get(sample) == {k: expected.get(k) for k in sample}
                    start = rng.choice(keys)
                    within = [pair for pair in ordered if pair[0] >= start]
                    assert db.scan(start, None, 8) == within[:8]
                    # A cursor dropped half read lets its view go.
                    assert list(itertools.islice(db.iterator(start), 8)) == within[:8]
            finally:
                stop.set()
                compactor.join(30)
        assert not compactor.is_alive()
        assert counted.reads > 0
        assert counted.retries == 0
        db.wait_for_compaction()
        assert _ssts(env) == _live(db)
