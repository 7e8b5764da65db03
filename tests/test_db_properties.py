"""Property-based tests: the DB must behave like a dict under any
sequence of puts/deletes interleaved with flushes, compactions, and
reopens -- for all three systems."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from paper import make_system
from repro.env.mem import MemEnv
from repro.lsm.db import DB
from repro.lsm.options import Options

_KEYS = st.binary(min_size=1, max_size=12)
_VALUES = st.binary(max_size=40)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, _VALUES),
        st.tuples(st.just("delete"), _KEYS, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    min_size=1,
    max_size=80,
)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _apply(db, model, ops):
    for op, key, value in ops:
        if op == "put":
            db.put(key, value)
            model[key] = value
        elif op == "delete":
            db.delete(key)
            model.pop(key, None)
        else:
            db.flush()


def _check(db, model):
    for key, value in model.items():
        assert db.get(key) == value
    scanned = dict(db.scan())
    assert scanned == model


@pytest.mark.parametrize("system", ["baseline", "encfs", "shield"])
@_SETTINGS
@given(ops=_OPS)
def test_db_matches_dict_model(system, ops):
    db = make_system(
        system, base_options=Options(write_buffer_size=2048, block_size=256)
    )
    model = {}
    try:
        _apply(db, model, ops)
        _check(db, model)
    finally:
        db.close()


@_SETTINGS
@given(ops=_OPS)
def test_db_matches_dict_model_after_compaction(ops):
    db = make_system(
        "shield",
        base_options=Options(
            write_buffer_size=2048,
            block_size=256,
            level0_file_num_compaction_trigger=2,
        ),
    )
    model = {}
    try:
        _apply(db, model, ops)
        db.compact_range()
        _check(db, model)
        db.force_compaction()
        _check(db, model)
    finally:
        db.close()


@_SETTINGS
@given(ops=_OPS)
def test_db_matches_dict_model_after_reopen(ops):
    env = MemEnv()

    def options():
        return Options(env=env, write_buffer_size=2048, block_size=256)

    db = DB("/prop", options())
    model = {}
    try:
        _apply(db, model, ops)
    finally:
        db.close()
    reopened = DB("/prop", options())
    try:
        _check(reopened, model)
    finally:
        reopened.close()


@_SETTINGS
@given(ops=_OPS, universal=st.booleans())
def test_compaction_style_equivalence(ops, universal):
    """Leveled and universal trees expose identical data."""
    results = {}
    for style in ("leveled", "universal"):
        db = make_system(
            "baseline",
            base_options=Options(
                write_buffer_size=2048,
                block_size=256,
                compaction_style=style,
                level0_file_num_compaction_trigger=2,
                universal_max_sorted_runs=2,
            ),
        )
        model = {}
        try:
            _apply(db, model, ops)
            db.compact_range()
            results[style] = dict(db.scan())
        finally:
            db.close()
    assert results["leveled"] == results["universal"]
