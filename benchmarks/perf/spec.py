"""What the benchmark runs and what it reports: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root repeats the names, units, directions
and bounds declared here (``tests/`` checks they agree).  Sizes were fixed
from probes on the 2-core box this was built on; a change that claims a
gain may not edit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KIB = 1024

GET, PUT, SCAN = 0, 1, 2
OP_NAMES = ("get", "put", "scan")

#: Set-ups per run; ``setup_s`` is their median, the last one is measured.
SETUP_REPEATS = 3
#: A phase that overruns ``seconds`` by this factor stops at the next
#: window boundary, so a slow host cannot run into the driver's time limit.
OVERRUN_FACTOR = 3.0
#: Windows a tail quantile is taken over, and the fewest samples a window
#: may hold before fewer windows are used.
TAIL_WINDOWS = 10
TAIL_MIN_WINDOW = 100
#: Seconds between two samples of the host's speed (host.host_factor) on
#: each client thread: about 3% of a run goes to the 1.2 ms samples.
SPIN_INTERVAL_S = 0.04
SCAN_LIMIT = 20
REOPEN_SAMPLE = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "embedded" drives open_shield_db on LocalEnv in this process;
    #: "served" drives the repro-serve CLI in a subprocess over a socket.
    kind: str
    scheme: str
    value_size: int
    #: Keys the op stream draws from.
    keyspace: int
    #: Keys loaded (index 0..load-1) by timed single puts during set-up.
    load: int
    #: Untimed ops of the main mix run after the load.
    warmup: int
    #: Main-phase ops per second of ``--seconds`` (op count, not a rate
    #: limit: the loop is closed).
    ops_per_second: int
    #: (get, put, scan) shares of the main phase.
    mix: tuple[float, float, float]
    distribution: str  # "uniform" | "zipfian"
    clients: int
    #: Ops of each type run against the settled store after the main
    #: phase, for the op types the main phase and the load do not time.
    probe_gets: int = 0
    probe_scans: int = 0
    #: Where each latency metric's samples come from.
    latency_source: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fillrandom",
            why="Paper Fig. 7 worst case: 100 B puts into an empty DB; WAL "
            "buffer, memtable, flush and compaction do all the work, the "
            "read path and the wire none.",
            kind="embedded", scheme="shake-ctr", value_size=100,
            keyspace=1_000_000, load=0, warmup=0, ops_per_second=6_000,
            mix=(0.0, 1.0, 0.0), distribution="uniform", clients=1,
            probe_gets=10_000, probe_scans=1_500,
            latency_source={"get": "probe", "put": "main", "scan": "probe"},
        ),
        Workload(
            name="readrandom",
            why="Paper Fig. 7 readrandom on a dataset 5x the block cache: "
            "SST reader, per-block cipher init + decrypt and env reads "
            "dominate; bypasses WAL, memtable and compaction.",
            kind="embedded", scheme="shake-ctr", value_size=1024,
            keyspace=10_000, load=10_000, warmup=5_000, ops_per_second=8_500,
            mix=(1.0, 0.0, 0.0), distribution="uniform", clients=1,
            probe_scans=1_500,
            latency_source={"get": "main", "put": "load", "scan": "probe"},
        ),
        Workload(
            name="ycsb-a-aead",
            why="Paper Fig. 9 / SHIELD++: 50/50 zipfian get/put under the "
            "shake-etm AEAD; reads compete with compaction for the GIL and "
            "the cache, so a write gain that costs reads shows here.",
            kind="embedded", scheme="shake-etm", value_size=1024,
            keyspace=8_000, load=8_000, warmup=0, ops_per_second=2_500,
            mix=(0.5, 0.5, 0.0), distribution="zipfian", clients=1,
            probe_scans=1_500,
            latency_source={"get": "main", "put": "main", "scan": "probe"},
        ),
        Workload(
            name="served-mixed",
            why="Full wire path (client, protocol, front-end, 2 shard "
            "workers, scatter-gather scan) on a dataset that fits the "
            "cache: framing and forwarding dominate, so an engine-only "
            "change predicts no change.",
            kind="served", scheme="shake-ctr", value_size=256,
            keyspace=6_000, load=6_000, warmup=1_000, ops_per_second=2_600,
            mix=(0.90, 0.05, 0.05), distribution="zipfian", clients=2,
            latency_source={"get": "main", "put": "main", "scan": "main"},
        ),
    )
}

#: Engine options every embedded workload shares (the stated flush policy:
#: WAL on, buffered, no fsync per write).  The block cache is 2 MiB, not
#: the 8 MiB default, so a 10 MB dataset is 5x the cache and still loads
#: three times inside the driver's per-run time budget.
ENGINE_OPTIONS = dict(
    write_buffer_size=256 * KIB,
    slowdown_delay_s=0.0,
    wal_enabled=True,
    wal_sync_writes=False,
    block_cache_size=2 * KIB * KIB,
    adaptive_compaction=False,
)
WAL_BUFFER = 512
SERVER_WORKERS = 2


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: Bounds are the share of the parent's median a metric may worsen by.
#: They are wide because this shared host is noisy even after the
#: normalisation of host.host_factor; README.md lists the spread observed
#: for each, which is at most about a third of its bound.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("get_p50_us", "us", "lower", 0.20),
    Metric("get_p90_us", "us", "lower", 0.25),
    Metric("put_p50_us", "us", "lower", 0.20),
    Metric("put_p90_us", "us", "lower", 0.25),
    Metric("scan_p50_us", "us", "lower", 0.25),
    Metric("cpu_us_per_op", "us", "lower", 0.25),
    Metric("write_amp", "ratio", "lower", 0.25),
    Metric("space_amp", "ratio", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

# source: C = count over the measured interval, S = span from the traced
# run, P = isolated probe of the layer's public entry point.
PER_LAYER = (
    # Windowed p99s spread 10-40% between identical runs on this host, so
    # they are reported here, unbounded, from the untraced reference pass.
    Metric("get_p99_us", "us", "lower"),
    Metric("put_p99_us", "us", "lower"),
    Metric("service.client.cpu_us_per_op", "us", "lower"),            # C
    Metric("service.client.busy_retries", "count", "lower"),          # C
    Metric("service.protocol.encode_put_us", "us", "lower"),          # P
    Metric("service.protocol.decode_put_us", "us", "lower"),          # P
    Metric("service.workers.ping_rtt_us", "us", "lower"),             # P
    Metric("service.workers.server_cpu_us_per_op", "us", "lower"),    # C
    Metric("service.workers.wire_bytes_per_op", "B", "lower"),        # C
    Metric("service.workers.busy_rejections", "count", "lower"),      # C
    Metric("lsm.db.get_self_us", "us", "lower"),                      # S
    Metric("lsm.db.put_self_us", "us", "lower"),                      # S
    Metric("lsm.db.sst_probes_per_get", "ratio", "lower"),            # C
    Metric("lsm.db.stall_s", "s", "lower"),                           # C
    Metric("lsm.db.drain_s", "s", "lower"),                           # C
    Metric("lsm.wal.add_record_us", "us", "lower"),                   # P
    Metric("lsm.wal.seal_1k_record_us", "us", "lower"),               # P
    Metric("lsm.wal.appends_per_put", "ratio", "lower"),              # C
    Metric("lsm.wal.bytes_per_user_byte", "ratio", "lower"),          # C
    Metric("lsm.memtable.add_us", "us", "lower"),                     # P
    Metric("lsm.memtable.get_us", "us", "lower"),                     # P
    Metric("lsm.sst.build_mb_per_s", "MB/s", "higher"),               # P
    Metric("lsm.sst.build_aead_mb_per_s", "MB/s", "higher"),          # P
    Metric("lsm.sst.get_hit_us", "us", "lower"),                      # P
    Metric("lsm.sst.get_bloom_reject_us", "us", "lower"),             # P
    Metric("lsm.sst.open_us", "us", "lower"),                         # P
    Metric("lsm.sst.scan_mb_per_s", "MB/s", "higher"),                # P
    Metric("lsm.block_cache.hit_frac", "ratio", "higher"),            # C
    Metric("lsm.block_cache.misses_per_get", "ratio", "lower"),       # C
    Metric("lsm.block_cache.misses", "count", "lower"),               # C
    Metric("lsm.compaction.flushes", "count", "lower"),               # C
    Metric("lsm.compaction.compactions", "count", "lower"),           # C
    Metric("lsm.compaction.flush_bytes_per_user_byte", "ratio", "lower"),    # C
    Metric("lsm.compaction.bytes_written_per_user_byte", "ratio", "lower"),  # C
    Metric("lsm.compaction.bytes_read_per_user_byte", "ratio", "lower"),     # C
    Metric("lsm.compaction.bg_cpu_frac", "ratio", "lower"),           # C
    Metric("lsm.compaction.l0_files_max", "count", "lower"),          # S
    Metric("crypto.ctx_init_us", "us", "lower"),                      # P
    Metric("crypto.ctr_4k_us", "us", "lower"),                        # P
    Metric("crypto.ctr_mb_per_s", "MB/s", "higher"),                  # P
    Metric("crypto.aead_seal_4k_us", "us", "lower"),                  # P
    Metric("crypto.aead_open_4k_us", "us", "lower"),                  # P
    Metric("crypto.ctx_inits_per_op", "ratio", "lower"),              # C
    Metric("crypto.bytes_per_user_byte", "ratio", "lower"),           # C
    Metric("crypto.auth_fail", "count", "lower"),                     # C
    Metric("keys.kds_calls_per_kop", "ratio", "lower"),               # C
    Metric("keys.kds_busy_s", "s", "lower"),                          # S
    Metric("keys.new_dek_us", "us", "lower"),                         # P
    Metric("keys.get_dek_cached_us", "us", "lower"),                  # P
    Metric("env.sst_write_ops", "count", "lower"),                    # C
    Metric("env.sst_write_mean_bytes", "B", "higher"),                # C
    Metric("env.sync_ops", "count", "lower"),                         # C
    Metric("env.sst_read_ops_per_get", "ratio", "lower"),             # C
    Metric("env.read_busy_s", "s", "lower"),                          # S
    Metric("env.write_busy_s", "s", "lower"),                         # S
    Metric("env.sync_busy_s", "s", "lower"),                          # S
    Metric("env.fg_read_us_per_get", "us", "lower"),                  # S
    Metric("host.calib_ms", "ms", "lower"),
    Metric("host.nproc", "count", "higher"),
    Metric("host.loadavg_start", "count", "lower"),
    Metric("bench.loop_us_per_op", "us", "lower"),
    Metric("bench.trace_overhead_frac", "ratio", "lower"),
    # First 48 bits of the op stream's SHA-256 (the full digest is printed
    # and written to the result file): same seed, same number.
    Metric("bench.opstream_sha256", "hash48", "lower"),
)
