"""The paper's evaluation workloads, on the benchmark's own generators.

The figure scripts (``bench_*.py``) and their conftest, the workload
tests under ``tests/`` and ``examples/benchmark_tour.py`` take their
workloads from this one module.  Keys, values and the zipfian come from
``benchmarks/perf/gen.py`` (imported, never edited), so the figures and
``benchmarks/perf`` draw from one set of generators and a difference
between two systems comes from the systems, not the harness.
Two pieces ``gen.py`` does not have stay here, each as small as it can be:
YCSB-D's "latest" distribution (:class:`Latest`) and Mixgraph's Pareto-sized
values (:func:`pareto_values`; many fall below ``gen.Values``' minimum).

- the six systems under test (Section 6.1): :func:`make_system`;
- db_bench micro workloads: :func:`fill_random`, :func:`read_random`,
  :func:`read_write_mix`, and :func:`preload` (the sequential load);
- YCSB A-F: :func:`load_ycsb` / :func:`run_ycsb`;
- Mixgraph: :func:`preload_mixgraph` / :func:`run_mixgraph`;
- :func:`timed`, the one timing loop, and its :class:`RunResult` rows,
  rendered by :func:`format_table` / :func:`ascii_bar_chart` and saved by
  :func:`write_results_json`;
- :class:`TracingDB` / :func:`replay_trace`: capture an op sequence on one
  database and replay it on another.

Paper defaults, scaled down: 16-byte keys, 100-byte values (1 KB for YCSB).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Iterator

from repro.crypto.cipher import generate_key
from repro.encfs.env import EncryptedEnv
from repro.env.base import Env
from repro.env.mem import MemEnv
from repro.errors import InvalidArgumentError
from repro.keys.kds import InMemoryKDS, KeyDistributionService
from repro.lsm.db import DB
from repro.lsm.envelope import FILE_KIND_OTHER
from repro.lsm.filecrypto import NULL_CRYPTO, PlaintextCryptoProvider
from repro.lsm.options import Options
from repro.lsm.wal import WALWriter, read_wal_records
from repro.obs import costs
from repro.shield.config import ShieldOptions
from repro.util.coding import decode_length_prefixed, encode_length_prefixed
from repro.util.stats import percentile_exact

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf"))
import gen  # noqa: E402  (benchmarks/perf/gen.py: keys, values, zipfian)

# -- the systems under test -------------------------------------------------

#: ``baseline`` is the unencrypted engine, ``encfs`` the instance-level
#: EncryptedEnv below it, ``shield`` per-file DEKs in the write path; each
#: ``+walbuf`` variant turns on the application-managed WAL buffer (§5.3).
SYSTEMS = [
    "baseline",
    "baseline+walbuf",
    "encfs",
    "encfs+walbuf",
    "shield",
    "shield+walbuf",
]
DEFAULT_WAL_BUFFER = 512


@dataclass(frozen=True)
class SystemSpec:
    name: str
    design: str  # baseline | encfs | shield
    wal_buffer: int


def parse_system(name: str, wal_buffer: int = DEFAULT_WAL_BUFFER) -> SystemSpec:
    design, __, suffix = name.partition("+")
    if design not in ("baseline", "encfs", "shield") or suffix not in ("", "walbuf"):
        raise InvalidArgumentError(f"unknown system {name!r}")
    return SystemSpec(name, design, wal_buffer if suffix else 0)


def make_system(
    name: str,
    path: str = "/benchdb",
    base_options: Options | None = None,
    env: Env | None = None,
    kds: KeyDistributionService | None = None,
    scheme: str = "shake-ctr",
    wal_buffer: int = DEFAULT_WAL_BUFFER,
) -> DB:
    """Open a fresh DB configured as one of the paper's systems."""
    spec = parse_system(name, wal_buffer)
    options = replace(base_options) if base_options is not None else Options()
    options.env = env if env is not None else MemEnv()
    options.wal_buffer_size = spec.wal_buffer
    options.crypto_provider = None
    if spec.design == "encfs":
        options.env = EncryptedEnv(options.env, generate_key(scheme), scheme)
    elif spec.design == "shield":
        options.crypto_provider = ShieldOptions(
            kds=kds if kds is not None else InMemoryKDS(),
            server_id="bench-server",
            scheme=scheme,
            wal_buffer_size=spec.wal_buffer,
        ).build_provider()
    return DB(path, options)


# -- the one timing loop ----------------------------------------------------


@dataclass
class RunResult:
    """One measured workload execution.

    ``extra`` holds the op counts by kind plus whatever a figure adds;
    ``breakdown`` is the per-op-class cost attribution collected through
    :mod:`repro.obs.costs` (``{op_class: {encrypt_seconds, ...}}``) when
    the run ran under ``costs.collect()``.
    """

    name: str
    ops: int
    elapsed_s: float
    latencies_s: list[float] = field(default_factory=list, repr=False)
    extra: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.ops / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def p99_us(self) -> float:
        return percentile_exact(self.latencies_s, 99) * 1e6

    @property
    def p50_us(self) -> float:
        return percentile_exact(self.latencies_s, 50) * 1e6

    @property
    def mean_us(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s) * 1e6


def _read_modify_write(db, key, value):
    db.get(key)
    db.put(key, value)


#: What each op kind does; YCSB's read/update/insert are get/put/put.
_ACTIONS = {
    "get": lambda db, key, arg: db.get(key),
    "read": lambda db, key, arg: db.get(key),
    "put": lambda db, key, arg: db.put(key, arg),
    "update": lambda db, key, arg: db.put(key, arg),
    "insert": lambda db, key, arg: db.put(key, arg),
    "scan": lambda db, key, limit: db.scan(start=key, limit=limit),
    "rmw": _read_modify_write,
}


def timed(db, name: str, ops: Iterable[tuple[str, bytes, object]]) -> RunResult:
    """Run ``(kind, key, value or scan limit)`` ops back to back on ``db``.

    Each op is timed on its own and charged to its kind's cost class; the
    ops are drawn lazily, so the whole-run time includes making them, as
    db_bench's does.  ``extra`` counts the ops by kind.
    """
    latencies = []
    counts: Counter = Counter()
    clock = time.perf_counter
    start = clock()
    for kind, key, arg in ops:
        action = _ACTIONS[kind]
        op_start = clock()
        with costs.op_class(kind):
            action(db, key, arg)
        latencies.append(clock() - op_start)
        counts[kind] += 1
    elapsed = clock() - start
    return RunResult(name, len(latencies), elapsed, latencies, extra=dict(counts))


# -- db_bench micro workloads (§6.2) ----------------------------------------


@dataclass
class WorkloadSpec:
    """Shared micro-workload parameters (db_bench defaults, scaled down)."""

    num_ops: int = 5000
    keyspace: int = 5000
    value_size: int = 100
    seed: int = 42
    read_fraction: float = 0.5  # for read_write_mix


def micro_ops(spec: WorkloadSpec, read_fraction: float, seed: int) -> Iterator:
    """Uniform keys over the keyspace; a get with ``read_fraction``, else a put."""
    rng = random.Random(seed)
    values = gen.Values(spec.seed, spec.value_size)
    for version in range(spec.num_ops):
        index = rng.randrange(spec.keyspace)
        if rng.random() < read_fraction:
            yield "get", gen.key(index), None
        else:
            yield "put", gen.key(index), values.make(index, version)


def fill_random(db, spec: WorkloadSpec, name: str = "fillrandom") -> RunResult:
    """Random-order puts over the keyspace (the paper's worst case)."""
    return timed(db, name, micro_ops(spec, 0.0, spec.seed))


def read_random(db, spec: WorkloadSpec, name: str = "readrandom") -> RunResult:
    """Uniform random point lookups over a preloaded keyspace."""
    return timed(db, name, micro_ops(spec, 1.0, spec.seed + 1))


def read_write_mix(db, spec: WorkloadSpec, name: str | None = None) -> RunResult:
    """readwriterandom: a configurable read/write ratio (Figures 8/20/23)."""
    name = name or f"rw-{int(spec.read_fraction * 100)}r"
    return timed(db, name, micro_ops(spec, spec.read_fraction, spec.seed + 2))


def preload(db, spec: WorkloadSpec) -> None:
    """Load every key of the keyspace once, in order, then settle the tree."""
    values = gen.Values(spec.seed, spec.value_size)
    for index in range(spec.keyspace):
        db.put(gen.key(index), values.make(index, 0))
    db.compact_range()


# -- YCSB core workloads A-F ------------------------------------------------


@dataclass
class YCSBSpec:
    """Scaled-down YCSB parameters (paper: 10M records / 1M ops, 1 KB)."""

    record_count: int = 2000
    operation_count: int = 2000
    value_size: int = 1024
    scan_length: int = 20
    seed: int = 42


@dataclass(frozen=True)
class _Mix:
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # or "latest"


#: The YCSB core properties (Cooper et al.): op mix and request distribution.
YCSB_WORKLOADS: dict[str, _Mix] = {
    "A": _Mix(read=0.5, update=0.5),
    "B": _Mix(read=0.95, update=0.05),
    "C": _Mix(read=1.0),
    "D": _Mix(read=0.95, insert=0.05, distribution="latest"),
    "E": _Mix(scan=0.95, insert=0.05),
    "F": _Mix(read=0.5, rmw=0.5),
}


class Latest:
    """YCSB-D's "latest": zipfian over recency, so the newest record is hottest.

    ``(count + 1) ** u`` for uniform ``u`` is the closed-form inverse CDF of
    a theta-1 zipfian over recency ranks.  ``gen.Zipfian`` cannot serve
    here: it scrambles its ranks over the keyspace, the opposite of what D
    wants.
    """

    def __init__(self, count: int, seed: int):
        self.count = count
        self._rng = random.Random(seed)

    def advance(self) -> int:
        """Register an insert; returns the new record's index."""
        self.count += 1
        return self.count - 1

    def next_index(self) -> int:
        return self.count - int((self.count + 1) ** self._rng.random())


def load_ycsb(db, spec: YCSBSpec) -> None:
    """The YCSB load phase: insert record_count records, settle the tree."""
    preload(db, WorkloadSpec(keyspace=spec.record_count,
                             value_size=spec.value_size, seed=spec.seed))


def ycsb_ops(workload: str, spec: YCSBSpec) -> Iterator:
    mix = YCSB_WORKLOADS[workload.upper()]
    rng = random.Random(spec.seed + 17)
    values = gen.Values(spec.seed + 5, spec.value_size)
    latest = Latest(spec.record_count, spec.seed + 7)
    if mix.distribution == "latest":
        draw = latest.next_index
    else:
        draw = partial(gen.Zipfian(spec.record_count).sample, rng)
    for version in range(1, spec.operation_count + 1):
        roll = rng.random()
        if roll < mix.read:
            yield "read", gen.key(draw()), None
        elif roll < mix.read + mix.update:
            index = draw()
            yield "update", gen.key(index), values.make(index, version)
        elif roll < mix.read + mix.update + mix.insert:
            index = latest.advance()
            yield "insert", gen.key(index), values.make(index, 0)
        elif roll < mix.read + mix.update + mix.insert + mix.scan:
            yield "scan", gen.key(draw()), rng.randrange(1, spec.scan_length + 1)
        else:
            index = draw()
            yield "rmw", gen.key(index), values.make(index, version)


def run_ycsb(db, workload: str, spec: YCSBSpec, name: str | None = None) -> RunResult:
    """Run one YCSB workload against a loaded database."""
    return timed(db, name or f"ycsb-{workload.upper()}", ycsb_ops(workload, spec))


# -- Mixgraph (Cao et al., FAST'20) ------------------------------------------


@dataclass
class MixgraphSpec:
    """The Facebook social-graph mix (paper: 50M preload / 10M ops):
    skewed keys, small Pareto-sized values, ~0.83 GET / 0.14 PUT / 0.03 SEEK."""

    num_ops: int = 5000
    keyspace: int = 5000
    get_fraction: float = 0.83
    put_fraction: float = 0.14  # the rest are SEEKs
    scan_length: int = 10
    # Generalized Pareto value sizes (FAST'20 fit): sigma/xi give a mean
    # near 37 bytes, capped to keep the outliers bounded.
    pareto_sigma: float = 16.0
    pareto_xi: float = 0.2
    value_cap: int = 1024
    seed: int = 42


def pareto_values(spec: MixgraphSpec, seed: int) -> Iterator[bytes]:
    """Values of generalized-Pareto sizes, sliced from one random pool."""
    rng = random.Random(seed)
    pool = rng.randbytes(2 * spec.value_cap)
    while True:
        u = rng.random()
        size = spec.pareto_sigma / spec.pareto_xi * ((1 - u) ** -spec.pareto_xi - 1)
        size = max(1, min(spec.value_cap, int(size) + 16))
        start = rng.randrange(spec.value_cap)
        yield pool[start:start + size]


def preload_mixgraph(db, spec: MixgraphSpec) -> None:
    """Load the keyspace with Pareto-sized values, then settle the tree."""
    values = pareto_values(spec, spec.seed)
    for index in range(spec.keyspace):
        db.put(gen.key(index), next(values))
    db.compact_range()


def mixgraph_ops(spec: MixgraphSpec) -> Iterator:
    rng = random.Random(spec.seed + 3)
    zipf = gen.Zipfian(spec.keyspace)
    values = pareto_values(spec, spec.seed + 2)
    for _ in range(spec.num_ops):
        choice = rng.random()
        target = gen.key(zipf.sample(rng))
        if choice < spec.get_fraction:
            yield "get", target, None
        elif choice < spec.get_fraction + spec.put_fraction:
            yield "put", target, next(values)
        else:
            yield "scan", target, spec.scan_length


def run_mixgraph(db, spec: MixgraphSpec, name: str = "mixgraph") -> RunResult:
    """Execute the GET/PUT/SEEK mix against a preloaded database."""
    return timed(db, name, mixgraph_ops(spec))


# -- reporting --------------------------------------------------------------


def relative_overhead(baseline: RunResult, candidate: RunResult) -> float:
    """Throughput regression vs. baseline, in percent (positive = slower)."""
    if baseline.throughput <= 0:
        return 0.0
    return (1.0 - candidate.throughput / baseline.throughput) * 100.0


def format_table(
    title: str,
    results: list[RunResult],
    baseline_name: str | None = None,
    extra_columns: list[str] | None = None,
) -> str:
    """Render results as an aligned text table, with the % overhead column
    against ``baseline_name`` when one is given."""
    extra_columns = extra_columns or []
    baseline = next((r for r in results if r.name == baseline_name), None)
    headers = ["system", "ops", "ops/sec", "p50(us)", "p99(us)"]
    if baseline is not None:
        headers.append("overhead")
    headers.extend(extra_columns)

    rows = [headers]
    for result in results:
        row = [
            result.name,
            str(result.ops),
            f"{result.throughput:,.0f}",
            f"{result.p50_us:,.1f}",
            f"{result.p99_us:,.1f}",
        ]
        if baseline is not None:
            if result is baseline:
                row.append("baseline")
            else:
                row.append(f"{relative_overhead(baseline, result):+.1f}%")
        for column in extra_columns:
            value = result.extra.get(column, "")
            row.append(f"{value:,.0f}" if isinstance(value, (int, float)) else str(value))
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = [f"== {title} =="]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def ascii_bar_chart(title: str, results: list[RunResult], width: int = 48) -> str:
    """Render throughput as a horizontal ASCII bar chart (figures in text)."""
    if not results:
        return f"== {title} == (no data)"
    peak = max(result.throughput for result in results) or 1.0
    name_width = max(len(result.name) for result in results)
    lines = [f"== {title} (ops/sec) =="]
    for result in results:
        bar = "#" * max(1, int(result.throughput / peak * width))
        lines.append(
            f"{result.name.ljust(name_width)} |{bar.ljust(width)}| "
            f"{result.throughput:,.0f}"
        )
    return "\n".join(lines)


def write_results_json(
    path: str, experiment: str, results: list[RunResult], meta: dict | None = None
) -> None:
    """Persist an experiment's rows (latency percentiles, not raw samples)."""
    payload = {
        "experiment": experiment,
        "results": [
            {
                "name": r.name,
                "ops": r.ops,
                "elapsed_s": r.elapsed_s,
                "throughput": r.throughput,
                "p50_us": r.p50_us,
                "p99_us": r.p99_us,
                "mean_us": r.mean_us,
                "extra": dict(r.extra),
                "breakdown": dict(r.breakdown),
            }
            for r in results
        ],
    }
    if meta:
        payload["meta"] = meta
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- trace capture and replay (db_bench's trace_replay) ----------------------

OP_PUT, OP_GET, OP_DELETE, OP_SCAN = 1, 2, 3, 4


class TracingDB:
    """Record every operation passing through to the wrapped DB.

    The trace file is framed and checksummed by the WAL record format;
    :func:`replay_trace` re-executes it against another database, e.g. a
    plaintext baseline's trace against SHIELD.
    """

    def __init__(self, db, env: Env, trace_path: str):
        self.db = db
        self._writer = WALWriter(env, trace_path, NULL_CRYPTO, file_kind=FILE_KIND_OTHER)
        self.operations_traced = 0
        self._tracing = True

    def _record(self, op: int, key: bytes, value: bytes = b"") -> None:
        if not self._tracing:
            return  # trace closed; operate as a plain passthrough
        self._writer.add_record(
            bytes([op]) + encode_length_prefixed(key) + encode_length_prefixed(value)
        )
        self.operations_traced += 1

    def put(self, key: bytes, value: bytes, opts=None) -> None:
        self._record(OP_PUT, key, value)
        self.db.put(key, value, opts)

    def get(self, key: bytes, opts=None):
        self._record(OP_GET, key)
        return self.db.get(key, opts)

    def delete(self, key: bytes, opts=None) -> None:
        self._record(OP_DELETE, key)
        self.db.delete(key, opts)

    def scan(self, start: bytes = b"", end: bytes | None = None,
             limit: int | None = None, opts=None):
        self._record(OP_SCAN, start, end or b"")
        return self.db.scan(start, end, limit, opts)

    def close_trace(self) -> None:
        self._tracing = False
        self._writer.sync()
        self._writer.close()

    def __getattr__(self, name):
        # Everything else (flush, compact_range, stats, ...) passes through.
        return getattr(self.db, name)


def read_trace(env: Env, trace_path: str) -> list[tuple[int, bytes, bytes]]:
    """Parse a trace file into (op, key, value) tuples."""
    ops = []
    for record in read_wal_records(env, trace_path, PlaintextCryptoProvider()):
        key, offset = decode_length_prefixed(record, 1)
        value, __ = decode_length_prefixed(record, offset)
        ops.append((record[0], key, value))
    return ops


def replay_trace(db, env: Env, trace_path: str) -> dict[str, int]:
    """Re-execute a trace against ``db``; returns per-op counts."""
    counts = {"put": 0, "get": 0, "delete": 0, "scan": 0}
    for op, key, value in read_trace(env, trace_path):
        if op == OP_PUT:
            db.put(key, value)
            counts["put"] += 1
        elif op == OP_GET:
            db.get(key)
            counts["get"] += 1
        elif op == OP_DELETE:
            db.delete(key)
            counts["delete"] += 1
        elif op == OP_SCAN:
            db.scan(key, value or None)
            counts["scan"] += 1
    return counts
