"""Set-up, measured phases and the two harnesses (embedded, served).

Only the product's public surface is imported: ``open_shield_db`` /
``ShieldOptions``, ``Options``, ``LocalEnv``, ``InMemoryKDS``,
``KVClient``, ``CRYPTO_STATS`` and the ``repro.tools.serve`` CLI.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import host
from gen import OpStream, Values, key, make_stream
from instrument import CountingEnv, CountingKDS, Tracer
from oracle import Oracle
from spec import (
    ENGINE_OPTIONS,
    GET,
    OP_NAMES,
    OVERRUN_FACTOR,
    PUT,
    REOPEN_SAMPLE,
    SCAN,
    SCAN_LIMIT,
    SERVER_WORKERS,
    SPIN_INTERVAL_S,
    WAL_BUFFER,
    Workload,
)

from repro.crypto.cipher import CRYPTO_STATS
from repro.env.local import LocalEnv
from repro.keys.kds import InMemoryKDS
from repro.lsm.options import Options
from repro.service.client import KVClient
from repro.shield import ShieldOptions, open_shield_db

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
KEY_SIZE = 16
PASSKEY = "perf-bench-passkey"


@dataclass
class Phase:
    """What running one op stream produced."""

    #: lat[client][op kind] -> per-op seconds, in issue order.
    lat: list[list[list[float]]]
    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    client_cpu_s: float = 0.0
    #: Traced runs: op-span time not covered by child spans, and the
    #: covered part, summed per op kind.
    self_s: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    child_s: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    sampled_max: int = 0
    errors: list[str] = field(default_factory=list)
    #: marks[client] -> (gets, puts, scans so far, host factor), taken
    #: every SPIN_INTERVAL_S and at the end of the client's stream.
    marks: list[list[tuple]] = field(default_factory=list)

    def factors(self) -> list[float]:
        return [mark[3] for client in self.marks for mark in client]

    def factor(self) -> float:
        """Mean host factor over the phase (1.0 for an empty phase)."""
        factors = self.factors()
        return sum(factors) / len(factors) if factors else 1.0

    def samples(self, kind: int, normalise: bool = True) -> list[list[float]]:
        """Per client, the latencies of one op kind in reference-host
        seconds: each divided by the host factor around the time it ran
        (the mean of the two marks that bracket it)."""
        if not normalise:
            return [client[kind] for client in self.lat]
        out = []
        for lat, marks in zip(self.lat, self.marks):
            scaled = []
            for before, after in zip(marks, marks[1:]):
                factor = (before[3] + after[3]) / 2.0
                scaled.extend(
                    x / factor for x in lat[kind][before[kind]:after[kind]]
                )
            out.append(scaled)
        return out

    def count(self, kind: int) -> int:
        return sum(len(client[kind]) for client in self.lat)


def run_phase(
    targets: list,
    streams: list[OpStream],
    oracle: Oracle,
    span_prefix: str,
    budget_s: float = 60.0,
    tracer: Tracer | None = None,
    sampler=None,
) -> Phase:
    """Closed loop: each client sends its next op when the last returned.
    A client that overruns ``budget_s`` by OVERRUN_FACTOR stops early."""
    clients = len(streams)
    exact = clients == 1
    phase = Phase(
        lat=[[[], [], []] for _ in range(clients)],
        marks=[[] for _ in range(clients)],
    )
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()

    def client_loop(client: int) -> None:
        target = targets[client]
        kinds, indices = streams[client].kinds, streams[client].indices
        lat = phase.lat[client]
        marks = phase.marks[client]
        self_s, child_s = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        names = [f"{span_prefix}.{name}" for name in OP_NAMES]
        failed = done = sampled_max = 0
        errors: list[str] = []

        if tracer is None:
            def call(kind, _op_id, fn, *args):
                start = perf_counter()
                result = fn(*args)
                lat[kind].append(perf_counter() - start)
                return result
        else:
            def call(kind, op_id, fn, *args):
                tracer.begin(op_id)
                result = fn(*args)
                took, covered = tracer.end(names[kind])
                lat[kind].append(took)
                self_s[kind] += took - covered
                child_s[kind] += covered
                return result

        barrier.wait()
        deadline = perf_counter() + budget_s * OVERRUN_FACTOR
        cpu_start = time.thread_time()
        next_mark = 0.0
        for pos in range(len(kinds)):
            if perf_counter() >= next_mark:
                marks.append(
                    (len(lat[0]), len(lat[1]), len(lat[2]), host.host_factor())
                )
                next_mark = perf_counter() + SPIN_INTERVAL_S
            kind, index = kinds[pos], indices[pos]
            op_id = pos * clients + client
            try:
                if kind == GET:
                    floor = oracle.floor(index)
                    value = call(GET, op_id, target.get, key(index))
                    ok = oracle.check_get(index, floor, value, exact)
                elif kind == PUT:
                    version, value = oracle.next_value(index)
                    call(PUT, op_id, target.put, key(index), value)
                    oracle.ack(index, version)
                    ok = True
                else:
                    expected = oracle.expected_scan(index, SCAN_LIMIT)
                    floors = [oracle.floor(i) for i in expected]
                    pairs = call(
                        SCAN, op_id, target.scan, key(index), None, SCAN_LIMIT
                    )
                    ok = oracle.check_scan(expected, floors, pairs, exact)
            except Exception as exc:  # any failed op is a counted failure
                ok = False
                if len(errors) < 3:
                    errors.append(repr(exc))
            done += 1
            if not ok:
                failed += 1
            if pos % 1000 == 999:
                if sampler is not None:
                    sampled_max = max(sampled_max, sampler())
                if perf_counter() > deadline:
                    break
        cpu = time.thread_time() - cpu_start
        if len(kinds):
            marks.append(
                (len(lat[0]), len(lat[1]), len(lat[2]), host.host_factor())
            )
        with lock:
            phase.ops += done
            phase.failed += failed
            phase.client_cpu_s += cpu
            phase.errors.extend(errors)
            phase.sampled_max = max(phase.sampled_max, sampled_max)
            for kind in (GET, PUT, SCAN):
                phase.self_s[kind] += self_s[kind]
                phase.child_s[kind] += child_s[kind]

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    phase.wall_s = perf_counter() - start
    return phase


class DictTarget:
    """The cheapest possible store: what the benchmark's own loop costs."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}
        self._sorted: list[bytes] | None = None

    def put(self, k: bytes, value: bytes) -> None:
        if k not in self._data:
            self._sorted = None
        self._data[k] = value

    def get(self, k: bytes):
        return self._data.get(k)

    def scan(self, start: bytes, end, limit: int):
        if self._sorted is None:
            self._sorted = sorted(self._data)
        pos = bisect.bisect_left(self._sorted, start)
        return [(k, self._data[k]) for k in self._sorted[pos:pos + limit]]


class EmbeddedHarness:
    """open_shield_db on LocalEnv (real files) in this process."""

    span_prefix = "DB"

    def __init__(self, workload: Workload, workdir: str, tracer: Tracer | None):
        self.workload = workload
        self.path = os.path.join(workdir, "db")
        self.env = CountingEnv(LocalEnv(), tracer)
        self.kds = CountingKDS(InMemoryKDS(), tracer)
        self.db = None

    def open(self) -> None:
        self.db = open_shield_db(
            self.path,
            ShieldOptions(
                kds=self.kds, scheme=self.workload.scheme,
                wal_buffer_size=WAL_BUFFER,
            ),
            Options(env=self.env, **ENGINE_OPTIONS),
        )

    def targets(self) -> list:
        return [self.db] * self.workload.clients

    def settle(self) -> None:
        """Merge everything into one sorted run.  After a plain
        ``compact_range()`` the tree's shape depends on how flushes and
        compactions happened to interleave, and with it block boundaries,
        cache hits and reads per get; one merged run is the same every
        time, so readrandom's counters repeat exactly."""
        self.db.force_compaction()

    def drain(self) -> None:
        self.db.wait_for_compaction()

    def l0_files(self) -> int:
        return self.db.num_files_at_level(0)

    def counters(self) -> dict:
        flat = dict(self.db.stats_snapshot())
        flat.update(CRYPTO_STATS.snapshot())
        for name, value in self.env.counts.snapshot().items():
            flat[f"env.{name}"] = value
        flat["kds.calls"] = self.kds.calls
        return flat

    def cpu_s(self) -> tuple[float, float]:
        """(this process and its children, the server's process tree)."""
        return host.own_cpu_s(), 0.0

    def peak_rss_mb(self) -> float:
        return host.own_peak_rss_mb()

    def write_amp(self, user_bytes: int) -> float:
        """Bytes appended to storage, all file classes, per user byte."""
        counts = self.env.counts.snapshot()
        appended = sum(
            v for k, v in counts.items() if k.startswith("append.bytes.")
        )
        return appended / user_bytes

    def disk_bytes(self) -> int:
        return host.dir_bytes(self.path)

    def reopen(self):
        """Close and reopen the same directory with the same KDS."""
        self.db.close()
        self.open()
        return self.db

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


class ServedHarness:
    """The repro-serve CLI in a subprocess, driven over a real socket."""

    span_prefix = "KVClient"

    def __init__(self, workload: Workload, workdir: str, tracer: Tracer | None):
        self.workload = workload
        self.workdir = workdir
        self.path = os.path.join(workdir, "db")
        self.proc: subprocess.Popen | None = None
        self.client: KVClient | None = None
        self._log = None

    def open(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._log = open(os.path.join(self.workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.tools.serve", "--multiprocess",
                "--workers", str(SERVER_WORKERS), "--env", "local",
                "--db", self.path, "--port", "0", "--passkey", PASSKEY,
                "--scheme", self.workload.scheme,
                "--wal-buffer", str(WAL_BUFFER),
                "--write-buffer-size", str(ENGINE_OPTIONS["write_buffer_size"]),
            ],
            env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        line = self.proc.stdout.readline().decode()
        if " on " not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])
        self.client = KVClient(
            "127.0.0.1", port, pool_size=self.workload.clients,
            rng=random.Random(0),
        )

    def targets(self) -> list:
        return [self.client] * self.workload.clients

    def settle(self) -> None:
        self.client.compact_range()

    def drain(self) -> None:
        """Puts are 5% of the mix and stay in the memtable; the interval
        ends at the last ack."""

    l0_files = None

    def counters(self) -> dict:
        stats = self.client.stats()
        flat = {}
        for section in ("engine", "crypto", "server"):
            flat.update(
                {k: v for k, v in stats.get(section, {}).items()
                 if isinstance(v, (int, float))}
            )
        flat["client.busy_retries"] = self.client.busy_retries
        return flat

    def cpu_s(self) -> tuple[float, float]:
        return host.own_cpu_s(), host.tree_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return host.tree_peak_rss_mb(self.proc.pid)

    def write_amp(self, user_bytes: int) -> float:
        """No Env wrapper can be injected into the server process: SST
        bytes come from the engine's OP_STATS counters and the WAL is
        counted as one copy of the user bytes."""
        flat = self.counters()
        sst_bytes = flat.get("db.flush_bytes", 0) + flat.get(
            "db.compaction_bytes_written", 0
        )
        return 1.0 + sst_bytes / user_bytes

    def disk_bytes(self) -> int:
        return host.dir_bytes(self.path)

    def _stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # The server led its own session: make sure no worker outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + 10
        while host.session_pids(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def reopen(self):
        """SIGINT the server and start it again on the same --db/--passkey."""
        self._stop_server()
        self.open()
        return self.client

    def close(self) -> None:
        self._stop_server()
        if self._log is not None:
            self._log.close()
            self._log = None


HARNESSES = {"embedded": EmbeddedHarness, "served": ServedHarness}


def load_stream(workload: Workload) -> OpStream:
    """Sequential puts of key 0..load-1 (dealt by parity to two clients)."""
    return OpStream(
        array("B", [PUT]) * workload.load, array("q", range(workload.load))
    )


def probe_stream(workload: Workload, oracle: Oracle, seed: int) -> OpStream:
    """Gets of written keys, then scans from uniform starts."""
    rng = random.Random(f"{workload.name}-probe-{seed}")
    written = sorted(oracle.latest)
    indices = array("q", rng.choices(written, k=workload.probe_gets))
    indices.extend(
        rng.randrange(workload.keyspace) for _ in range(workload.probe_scans)
    )
    kinds = array("B", [GET]) * workload.probe_gets
    kinds.extend(array("B", [SCAN]) * workload.probe_scans)
    return OpStream(kinds, indices)


@dataclass
class Instance:
    """One set-up: a loaded, warm store ready for the main phase."""

    harness: object
    oracle: Oracle
    main: OpStream
    load: Phase
    warmup: Phase
    #: Wall seconds of the set-up and the mean host factor while it ran.
    setup_s: float
    setup_factor: float
    workdir: str


def set_up(
    workload: Workload, seed: int, n_ops: int, workdir: str,
    tracer: Tracer | None,
) -> Instance:
    """Generate the inputs, open or spawn, load, settle and warm up."""
    start = perf_counter()
    factors = host.host_factors(4)
    os.makedirs(workdir)
    oracle = Oracle(Values(seed, workload.value_size))
    main = make_stream(workload, seed, n_ops, "main")
    harness = HARNESSES[workload.kind](workload, workdir, tracer)
    try:
        harness.open()
        load = run_phase(
            harness.targets(), load_stream(workload).split(workload.clients),
            oracle, harness.span_prefix,
        )
        if workload.load:
            harness.settle()
        warm = make_stream(workload, seed, workload.warmup, "warmup")
        warmup = run_phase(
            harness.targets(), warm.split(workload.clients), oracle,
            harness.span_prefix,
        )
    except BaseException:
        harness.close()
        raise
    factors.extend(host.host_factors(4))
    factors += load.factors() + warmup.factors()
    return Instance(
        harness, oracle, main, load, warmup, perf_counter() - start,
        sum(factors) / len(factors), workdir,
    )


def reopen_check(instance: Instance, workload: Workload, seed: int) -> Phase:
    """After a restart, sampled keys must read back at their last acked
    version."""
    target = instance.harness.reopen()
    rng = random.Random(f"{workload.name}-reopen-{seed}")
    written = sorted(instance.oracle.latest)
    sample = rng.sample(written, min(REOPEN_SAMPLE, len(written)))
    stream = OpStream(array("B", [GET]) * len(sample), array("q", sample))
    return run_phase(
        [target], [stream], instance.oracle, instance.harness.span_prefix
    )


def discard(instance: Instance) -> None:
    instance.harness.close()
    shutil.rmtree(instance.workdir, ignore_errors=True)


def user_bytes(workload: Workload, puts: int) -> int:
    return puts * (KEY_SIZE + workload.value_size)
