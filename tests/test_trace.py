"""Tests for workload trace capture and replay."""

from paper import TracingDB, read_trace, replay_trace
from repro.env.mem import MemEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield import ShieldOptions, open_shield_db


def _db(env, path="/t"):
    return DB(path, Options(env=env, write_buffer_size=8 * 1024))


def test_trace_records_all_op_kinds():
    env = MemEnv()
    traced = TracingDB(_db(env), env, "/trace.bin")
    traced.put(b"k1", b"v1")
    traced.get(b"k1")
    traced.delete(b"k1")
    traced.scan(b"a", b"z")
    traced.close_trace()
    traced.close()  # passthrough to the underlying DB

    ops = read_trace(env, "/trace.bin")
    assert [op for op, __, ___ in ops] == [1, 2, 3, 4]
    assert ops[0] == (1, b"k1", b"v1")
    assert ops[3] == (4, b"a", b"z")
    assert traced.operations_traced == 4


def test_traced_db_behaves_like_db():
    env = MemEnv()
    traced = TracingDB(_db(env), env, "/trace.bin")
    traced.put(b"k", b"v")
    assert traced.get(b"k") == b"v"
    traced.flush()  # passthrough attribute
    assert traced.get_property("repro.last-sequence") >= 1
    traced.close_trace()
    traced.close()


def test_replay_reproduces_state():
    env = MemEnv()
    traced = TracingDB(_db(env, "/src"), env, "/trace.bin")
    for i in range(150):
        traced.put(b"key-%03d" % i, b"value-%03d" % i)
    for i in range(0, 150, 3):
        traced.delete(b"key-%03d" % i)
    traced.get(b"key-001")
    traced.close_trace()
    expected = dict(traced.scan())
    traced.close()

    replay_env = MemEnv()
    target = _db(replay_env, "/dst")
    counts = replay_trace(target, env, "/trace.bin")
    try:
        assert counts["put"] == 150
        assert counts["delete"] == 50
        assert counts["get"] == 1
        assert dict(target.scan()) == expected
    finally:
        target.close()


def test_replay_plaintext_trace_against_shield():
    """The motivating flow: capture on the baseline, evaluate on SHIELD."""
    env = MemEnv()
    traced = TracingDB(_db(env, "/src"), env, "/trace.bin")
    for i in range(100):
        traced.put(b"key-%03d" % i, b"v")
    traced.close_trace()
    traced.close()

    shield_env = MemEnv()
    shield_db = open_shield_db(
        "/dst",
        ShieldOptions(kds=InMemoryKDS()),
        Options(env=shield_env, write_buffer_size=8 * 1024),
    )
    try:
        replay_trace(shield_db, env, "/trace.bin")
        assert shield_db.get(b"key-050") == b"v"
    finally:
        shield_db.close()
