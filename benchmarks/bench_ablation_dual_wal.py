"""Ablation: SHIELD's WAL buffer vs. the naive dual-WAL strawman
(Section 5.3's rejected design) vs. per-record encryption.

Expected shape: the dual-WAL's foreground path is fast (plaintext
synchronous writes) but it doubles WAL bytes, keeps an encryption backlog,
and -- the disqualifier -- leaves client data in plaintext on storage.
"""

from __future__ import annotations

import time

from conftest import emit, run_once

from paper import RunResult, format_table
from repro.crypto.cipher import generate_key, generate_nonce, scheme_id
from repro.env.mem import MemEnv
from repro.lsm.filecrypto import FileCrypto
from repro.lsm.wal import WALWriter
from repro.shield.dualwal import DualWALWriter

_NUM_RECORDS = 20_000
_RECORD = b"x" * 116  # ~16B key + 100B value


def _crypto():
    return FileCrypto(
        scheme_id("shake-ctr"), "dek-ab", generate_key("shake-ctr"),
        generate_nonce("shake-ctr"),
    )


def _measure(name, writer, env, plaintext_path=None):
    start = time.perf_counter()
    for _ in range(_NUM_RECORDS):
        writer.add_record(_RECORD)
    foreground = time.perf_counter() - start
    backlog = getattr(writer, "encrypted_backlog", 0)
    writer.close()
    result = RunResult(name=name, ops=_NUM_RECORDS, elapsed_s=foreground)
    result.extra["backlog"] = backlog
    result.extra["plaintext_exposed"] = (
        "YES" if plaintext_path and env.file_exists(plaintext_path) else "no"
    )
    result.extra["wal_bytes"] = env.total_bytes()
    return result


def _experiment():
    rows = []
    env = MemEnv()
    rows.append(
        _measure("per-record-enc", WALWriter(env, "/w.log", _crypto()), env)
    )
    env = MemEnv()
    rows.append(
        _measure(
            "wal-buffer-512",
            WALWriter(env, "/w.log", _crypto(), buffer_size=512),
            env,
        )
    )
    env = MemEnv()
    rows.append(
        _measure(
            "dual-wal",
            DualWALWriter(env, "/w.log", _crypto()),
            env,
            plaintext_path="/w.log.plain",
        )
    )
    return rows


def test_ablation_dual_wal(benchmark):
    rows = run_once(benchmark, _experiment)
    table = format_table(
        "Ablation: WAL buffer vs naive dual-WAL (Section 5.3)",
        rows,
        baseline_name="per-record-enc",
        extra_columns=["wal_bytes", "plaintext_exposed", "backlog"],
    )
    emit("ablation_dual_wal", table)

    by_name = {row.name: row for row in rows}
    # The buffer beats per-record encryption.
    assert by_name["wal-buffer-512"].throughput \
        > by_name["per-record-enc"].throughput
    # The dual-WAL writes roughly twice the bytes...
    assert by_name["dual-wal"].extra["wal_bytes"] \
        > by_name["wal-buffer-512"].extra["wal_bytes"] * 1.5
    # ...and exposes plaintext, which the buffer never does.
    assert by_name["dual-wal"].extra["plaintext_exposed"] == "YES"
    assert by_name["wal-buffer-512"].extra["plaintext_exposed"] == "no"
