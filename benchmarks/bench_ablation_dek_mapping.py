"""Ablation: metadata-embedded DEK-IDs vs. the KDS-side file->DEK mapping
(Section 5.4's rejected "naive approach").

Measured: database-open time (every SST open must resolve its DEK) and the
number of KDS round trips, at equal KDS latency.  Expected shape: the
central mapping pays one extra round trip per file creation *and* per file
open; SHIELD's secure cache drops restarts to zero KDS traffic.
"""

from __future__ import annotations

import time

from conftest import bench_options, emit, run_once

from paper import RunResult, format_table
from repro.env.mem import MemEnv
from repro.keys.cache import SecureDEKCache
from repro.keys.kds import SimulatedKDS
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.shield import ShieldOptions
from repro.shield.naive_mapping import MappingCryptoProvider, MappingKDS
from repro.util.clock import VirtualClock

_KDS_LATENCY_S = 2750e-6
_NUM_KEYS = 4000


def _load_and_reopen(name, env, make_provider, clock, tmp_cache=None):
    """Fill a DB, close it, then time a cold reopen + full read sweep."""
    options = bench_options(env=env, level0_file_num_compaction_trigger=2)
    options.crypto_provider = make_provider()
    db = DB(f"/{name}", options)
    for i in range(_NUM_KEYS):
        db.put(b"key-%05d" % i, b"v" * 60)
    db.compact_range()
    files = len(db.live_files())
    db.close()

    slept_before = clock.total_slept
    start = time.perf_counter()
    reopen_options = bench_options(env=env)
    reopen_options.crypto_provider = make_provider()
    db = DB(f"/{name}", reopen_options)
    for i in range(0, _NUM_KEYS, 97):
        assert db.get(b"key-%05d" % i) is not None
    wall = time.perf_counter() - start
    kds_time = clock.total_slept - slept_before
    db.close()

    result = RunResult(name=name, ops=files, elapsed_s=wall + kds_time)
    result.extra["files"] = files
    result.extra["kds_ms"] = round(kds_time * 1000, 1)
    return result


def _experiment():
    rows = []

    # SHIELD: metadata-embedded DEK-IDs + secure local cache.
    clock = VirtualClock()
    kds = SimulatedKDS(clock=clock, request_latency_s=_KDS_LATENCY_S)
    kds.authorize_server("s1")
    import tempfile

    cache = SecureDEKCache(tempfile.mktemp(), "pw", iterations=10)
    shield = ShieldOptions(kds=kds, server_id="s1", dek_cache=cache)
    rows.append(
        _load_and_reopen(
            "metadata-dekid", MemEnv(), shield.build_provider, clock
        )
    )

    # Strawman: central KDS file->DEK mapping, no cache.
    clock2 = VirtualClock()
    mapping_kds = MappingKDS(clock=clock2, request_latency_s=_KDS_LATENCY_S)
    mapping_kds.authorize_server("s1")
    rows.append(
        _load_and_reopen(
            "kds-file-mapping",
            MemEnv(),
            lambda: MappingCryptoProvider(mapping_kds, "s1"),
            clock2,
        )
    )
    return rows


def test_ablation_dek_mapping(benchmark):
    rows = run_once(benchmark, _experiment)
    table = format_table(
        "Ablation: metadata DEK-ID vs central KDS mapping (Section 5.4)",
        rows,
        extra_columns=["files", "kds_ms"],
    )
    emit("ablation_dek_mapping", table)

    by_name = {row.name: row for row in rows}
    # Shape: the central mapping spends strictly more KDS time on reopen.
    assert by_name["kds-file-mapping"].extra["kds_ms"] \
        > by_name["metadata-dekid"].extra["kds_ms"]
