"""The repo's one benchmark.  See README.md in this directory.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric as ``workload metric value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` (or with several) each workload runs in a fresh
Python process.  Exits non-zero when any op failed its check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SECONDS = 10


def _import_product() -> None:
    """Pin the configuration and make the product importable."""
    for name in list(os.environ):
        if name in ("REPRO_AEAD", "REPRO_ADAPTIVE") or name.startswith("REPRO_TRACE"):
            del os.environ[name]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"run.py: no product source at {src}")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)


def scaled(workload, scale: float):
    """A smaller copy of a workload (``--selfcheck`` and the tests)."""
    if scale >= 1.0:
        return workload

    def shrink(n: int) -> int:
        return max(2, int(n * scale) // 2 * 2) if n else 0

    load = shrink(workload.load)
    return dataclasses.replace(
        workload,
        load=load,
        keyspace=load or workload.keyspace,
        warmup=shrink(workload.warmup),
        probe_gets=shrink(workload.probe_gets),
        probe_scans=shrink(workload.probe_scans),
    )


def measure(workload, seed: int, seconds: float, traced: bool, setups: int,
            wrap_target=None) -> dict:
    """Set up ``setups`` times, run the measured phases on the last
    instance and return its raw results."""
    import host
    import workloads as wl
    from instrument import Tracer
    from spec import GET, PUT, SCAN

    n_ops = max(20, int(workload.ops_per_second * seconds))
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.enabled = False
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}-{time.time_ns()}")
    setup_times = []
    instance = None
    try:
        for attempt in range(setups):
            if instance is not None:
                wl.discard(instance)
            instance = wl.set_up(
                workload, seed, n_ops, os.path.join(run_dir, f"setup-{attempt}"),
                tracer,
            )
            setup_times.append((instance.setup_s, instance.setup_factor))
        harness, oracle = instance.harness, instance.oracle
        targets = harness.targets()
        if wrap_target is not None:
            targets = [wrap_target(t) for t in targets]

        before = harness.counters()
        cpu_own0, cpu_srv0 = harness.cpu_s()
        self_cpu0 = time.process_time()
        if tracer is not None:
            tracer.enabled = True
        main = wl.run_phase(
            targets, instance.main.split(workload.clients), oracle,
            harness.span_prefix, seconds, tracer,
            sampler=harness.l0_files if traced else None,
        )
        drain_start = perf_counter()
        if main.count(PUT):
            harness.drain()
        drain_s = perf_counter() - drain_start
        main_factors = main.factors() + host.host_factors(2)
        if tracer is not None:
            tracer.enabled = False
        self_cpu = time.process_time() - self_cpu0
        cpu_own1, cpu_srv1 = harness.cpu_s()
        after = harness.counters()

        puts = instance.load.count(PUT) + instance.warmup.count(PUT) + main.count(PUT)
        write_amp = harness.write_amp(wl.user_bytes(workload, puts))
        space_amp = harness.disk_bytes() / wl.user_bytes(workload, len(oracle.latest))
        probe_ops = wl.probe_stream(workload, oracle, seed)
        if main.count(PUT) and len(probe_ops):
            # How many sorted runs the drain leaves depends on timing, and
            # reads cost more per run: probe one fully merged run instead.
            harness.settle()
        probe = wl.run_phase(
            targets[:1], [probe_ops], oracle, harness.span_prefix
        )
        peak_rss_mb = harness.peak_rss_mb()
        reopen = wl.reopen_check(instance, workload, seed)
        ping = {}
        if traced and workload.kind == "served":
            import layers
            ping = layers.in_reference_time(lambda: {
                "service.workers.ping_rtt_us":
                    layers.timed_us(harness.client.ping, layers.CALLS),
            })
        phases = {
            "load": instance.load, "warmup": instance.warmup, "main": main,
            "probe": probe, "reopen": reopen,
        }
        return {
            "workload": workload, "setup_times": setup_times,
            "phases": phases, "interval_s": main.wall_s + drain_s,
            "drain_s": drain_s,
            "factor": sum(main_factors) / len(main_factors),
            "cpu_own_s": cpu_own1 - cpu_own0, "cpu_server_s": cpu_srv1 - cpu_srv0,
            "cpu_self_s": self_cpu,
            "delta": {
                k: after.get(k, 0) - before.get(k, 0)
                for k in set(after) | set(before)
            },
            "write_amp": write_amp, "space_amp": space_amp,
            "peak_rss_mb": peak_rss_mb, "ping": ping,
            "main_stream": instance.main, "tracer": tracer,
            "attempted": sum(p.ops for p in phases.values()),
            "failed": sum(p.failed for p in phases.values()),
            "errors": [e for p in phases.values() for e in p.errors],
            "counts": {k: main.count(k) for k in (GET, PUT, SCAN)},
        }
    finally:
        if instance is not None:
            wl.discard(instance)
        shutil.rmtree(run_dir, ignore_errors=True)


def ops_per_s(raw: dict) -> float:
    """Main-phase ops per reference-host second, drain included."""
    return raw["phases"]["main"].ops / (raw["interval_s"] / raw["factor"])


def end_to_end(raw: dict, normalise: bool = True) -> dict:
    """The end-to-end metrics, in reference-host time (see
    host.host_factor) or, with ``normalise`` off, as the clock read."""
    from spec import GET, PUT, SCAN
    from summary import p50_us, windowed_tail_us

    workload, phases = raw["workload"], raw["phases"]
    main = phases["main"]

    def samples(op: str, kind: int):
        return phases[workload.latency_source[op]].samples(kind, normalise)

    factor = raw["factor"] if normalise else 1.0
    return {
        "setup_s": statistics.median(
            s / (f if normalise else 1.0) for s, f in raw["setup_times"]
        ),
        "ops_per_s": main.ops / (raw["interval_s"] / factor),
        "get_p50_us": p50_us(samples("get", GET)),
        "get_p90_us": windowed_tail_us(samples("get", GET), 0.90),
        "get_p99_us": windowed_tail_us(samples("get", GET), 0.99),
        "put_p50_us": p50_us(samples("put", PUT)),
        "put_p90_us": windowed_tail_us(samples("put", PUT), 0.90),
        "put_p99_us": windowed_tail_us(samples("put", PUT), 0.99),
        "scan_p50_us": p50_us(samples("scan", SCAN)),
        "cpu_us_per_op":
            (raw["cpu_own_s"] + raw["cpu_server_s"]) / factor / main.ops * 1e6,
        "write_amp": raw["write_amp"],
        "space_amp": raw["space_amp"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict, untraced_ops_per_s: float, profile: dict,
              probe_calls: int) -> tuple[dict, list[str]]:
    """Counters of the traced run (C), its spans (S) and, when
    ``probe_calls`` is not 0, the isolated probes (P)."""
    import layers
    import workloads as wl
    from spec import GET, PUT, SCAN

    workload, main = raw["workload"], raw["phases"]["main"]
    delta, counts, tracer = raw["delta"], raw["counts"], raw["tracer"]
    served = workload.kind == "served"
    ops = main.ops
    user = wl.user_bytes(workload, counts[PUT])

    def d(name: str) -> float:
        return delta.get(name, 0)

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def ref(seconds: float) -> float:
        """Seconds of the traced main phase, in reference-host time."""
        return seconds / raw["factor"]

    cache_lookups = d("db.block_cache.hits") + d("db.block_cache.misses")
    values = {
        "service.client.cpu_us_per_op":
            per(ref(raw["cpu_self_s"]), ops) * 1e6 if served else 0.0,
        "service.client.busy_retries": d("client.busy_retries"),
        "service.workers.server_cpu_us_per_op":
            per(ref(raw["cpu_server_s"]), ops) * 1e6,
        "service.workers.wire_bytes_per_op":
            layers.wire_bytes_per_op(workload, raw["main_stream"]) if served else 0.0,
        "service.workers.busy_rejections": d("service.busy_rejections"),
        "lsm.db.get_self_us": per(ref(main.self_s[GET]), counts[GET]) * 1e6,
        "lsm.db.put_self_us": per(ref(main.self_s[PUT]), counts[PUT]) * 1e6,
        "lsm.db.sst_probes_per_get": per(d("db.get_sst_probes"), d("db.gets")),
        "lsm.db.stall_s": ref(d("db.stall_seconds.sum")),
        "lsm.db.drain_s": ref(raw["drain_s"]),
        "lsm.wal.appends_per_put": per(d("env.append.ops.wal"), counts[PUT]),
        "lsm.wal.bytes_per_user_byte": per(d("env.append.bytes.wal"), user),
        "lsm.block_cache.hit_frac": per(d("db.block_cache.hits"), cache_lookups),
        "lsm.block_cache.misses_per_get": per(d("db.block_cache.misses"), d("db.gets")),
        "lsm.block_cache.misses": d("db.block_cache.misses"),
        "lsm.compaction.flushes": d("db.flushes"),
        "lsm.compaction.compactions": d("db.compactions"),
        "lsm.compaction.flush_bytes_per_user_byte": per(d("db.flush_bytes"), user),
        "lsm.compaction.bytes_written_per_user_byte":
            per(d("db.compaction_bytes_written"), user),
        "lsm.compaction.bytes_read_per_user_byte":
            per(d("db.compaction_bytes_read"), user),
        # Embedded only: the server's background threads are in another
        # process and show in server_cpu_us_per_op.
        "lsm.compaction.bg_cpu_frac": 0.0 if served else max(
            0.0, per(raw["cpu_self_s"] - main.client_cpu_s, raw["cpu_self_s"])
        ),
        "lsm.compaction.l0_files_max": main.sampled_max,
        "crypto.ctx_inits_per_op": per(d("crypto.context_inits"), ops),
        "crypto.bytes_per_user_byte": per(d("crypto.bytes"), user),
        "crypto.auth_fail": d("crypto.auth_fail"),
        "keys.kds_calls_per_kop": per(d("kds.calls"), ops) * 1e3,
        "keys.kds_busy_s": ref(tracer.busy_s("kds.")),
        "env.sst_write_ops": d("env.append.ops.sst"),
        "env.sst_write_mean_bytes":
            per(d("env.append.bytes.sst"), d("env.append.ops.sst")),
        "env.sync_ops": sum(v for k, v in delta.items() if k.startswith("env.sync.ops.")),
        "env.sst_read_ops_per_get": per(d("env.read.ops.sst"), counts[GET]),
        "env.read_busy_s": ref(tracer.busy_s("env.read.")),
        "env.write_busy_s": ref(tracer.busy_s("env.append.")),
        "env.sync_busy_s": ref(tracer.busy_s("env.sync.")),
        "env.fg_read_us_per_get": per(ref(main.child_s[GET]), counts[GET]) * 1e6,
        "host.calib_ms": profile["calib_ms"],
        "host.nproc": profile["nproc"],
        "host.loadavg_start": profile["loadavg_start"],
        "bench.loop_us_per_op": loop_us_per_op(workload, raw),
        "bench.trace_overhead_frac":
            1.0 - per(ops_per_s(raw), untraced_ops_per_s),
        "bench.opstream_sha256": int(raw["main_stream"].sha256()[:12], 16),
    }
    values.update(raw["ping"])
    if not probe_calls:
        return values, []
    tmp = os.path.join(OUT_DIR, f"probe-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        probed, unavailable = layers.run_probes(tmp, probe_calls)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    values.update(probed)
    return values, unavailable


def loop_us_per_op(workload, raw: dict, sample: int = 20_000) -> float:
    """Generator + oracle cost: the head of the main stream against a dict."""
    import workloads as wl
    from gen import OpStream, Values
    from oracle import Oracle

    oracle = Oracle(Values(0, workload.value_size))
    target = wl.DictTarget()
    wl.run_phase([target], [wl.load_stream(workload)], oracle, "dict")
    stream = raw["main_stream"]
    head = OpStream(stream.kinds[:sample], stream.indices[:sample])
    phase = wl.run_phase([target], [head], oracle, "dict")
    return phase.wall_s / phase.factor() / max(1, phase.ops) * 1e6


def run_one(name: str, seed: int, seconds: float, traced: bool,
            probe_calls: int = 0, scale: float = 1.0, wrap_target=None) -> dict:
    """One workload in this process; returns the result record.
    ``traced`` adds an untraced reference pass and reports the per-layer
    sheet in place of the end-to-end metrics."""
    import host
    from spec import END_TO_END, OP_NAMES, PER_LAYER, SETUP_REPEATS, WORKLOADS

    profile = host.profile()
    workload = scaled(WORKLOADS[name], scale)
    setups = SETUP_REPEATS if scale >= 1.0 else 1
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "host": profile,
    }
    if not traced:
        raw = measure(workload, seed, seconds, False, setups, wrap_target)
        metrics, declared = end_to_end(raw), END_TO_END
        record["unnormalised"] = end_to_end(raw, normalise=False)
        record["host_factor"] = raw["factor"]
    else:
        untraced = measure(workload, seed, seconds, False, 1, wrap_target)
        raw = measure(workload, seed, seconds, True, 1, wrap_target)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        raw["tracer"].write_jsonl(trace_path)
        metrics, unavailable = per_layer(
            raw, ops_per_s(untraced), profile, probe_calls
        )
        reference = end_to_end(untraced)
        metrics["get_p99_us"] = reference["get_p99_us"]
        metrics["put_p99_us"] = reference["put_p99_us"]
        declared = PER_LAYER
        record["layers_unavailable"] = unavailable
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["span_check"] = span_check(raw)
        raw["attempted"] += untraced["attempted"]
        raw["failed"] += untraced["failed"]
        raw["errors"] += untraced["errors"]
    record["metrics"] = {
        m.name: {"value": metrics.get(m.name, 0.0), "unit": m.unit}
        for m in declared
    }
    record["opstream_sha256"] = raw["main_stream"].sha256()
    record["attempted"] = raw["attempted"]
    record["failed"] = raw["failed"]
    record["failed_ops_frac"] = raw["failed"] / max(1, raw["attempted"])
    record["errors"] = raw["errors"][:5]
    record["samples"] = {
        phase: {
            op: p.count(kind) for kind, op in enumerate(OP_NAMES)
        }
        for phase, p in raw["phases"].items()
    }
    record["correct"] = raw["failed"] == 0 and all(
        isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
        for v in record["metrics"].values()
    )
    return record


def span_check(raw: dict) -> dict:
    """The traced pass's invariants: children inside their parents, self
    times non-negative, and self + child time no more than the clients'
    wall time."""
    spans = raw["tracer"].finish()
    by_id = {s[0]: s for s in spans}
    covered: dict[int, float] = {}
    escaped = 0
    for span in spans:
        parent = by_id.get(span[4])
        if parent is not None:
            covered[parent[0]] = covered.get(parent[0], 0.0) + span[3] - span[2]
            if span[2] < parent[2] or span[3] > parent[3]:
                escaped += 1
    main = raw["phases"]["main"]
    return {
        "spans": len(spans),
        "children_outside_parent": escaped,
        "negative_self_times": sum(
            1 for span_id, child_s in covered.items()
            if child_s > by_id[span_id][3] - by_id[span_id][2]
        ),
        "self_plus_child_s": sum(main.self_s) + sum(main.child_s),
        "client_wall_s": main.wall_s * raw["workload"].clients,
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    print(f"{name} bench.opstream_sha256_hex {record['opstream_sha256']} hex")
    print(f"{name} failed_ops_frac {record['failed_ops_frac']!r} ratio")
    for phase, counts in record["samples"].items():
        print(f"{name} samples.{phase} "
              + " ".join(f"{op}={n}" for op, n in counts.items()) + " count")
    for error in record["errors"]:
        print(f"{name} error {error}", file=sys.stderr)


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def append_out(path: str, records: list[dict]) -> None:
    """Result files accumulate runs, so two interleaved sets of runs can be
    built by alternating ``--out A.json`` and ``--out B.json``."""
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"runs": runs + records}, handle, indent=1)


def selfcheck() -> int:
    """Every workload at a tiny size, untraced and traced; checks that the
    declared metrics are all emitted, finite and well named."""
    import re

    from spec import END_TO_END, PER_LAYER, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    problems = []
    if [m["name"] for m in declared["end_to_end"]] != [m.name for m in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from spec.END_TO_END")
    if [m["name"] for m in declared["per_layer"]] != [m.name for m in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from spec.PER_LAYER")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOADS")
    for name in WORKLOADS:
        for traced in (False, True):
            record = run_one(
                name, 42, 0.3, traced, probe_calls=100 if traced else 0,
                scale=0.05,
            )
            print_record(record)
            wanted = declared["per_layer" if traced else "end_to_end"]
            for metric in wanted:
                entry = record["metrics"].get(metric["name"])
                if entry is None:
                    problems.append(f"{name}: {metric['name']} not emitted")
                elif not math.isfinite(entry["value"]) or entry["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} = {entry}")
                if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"]):
                    problems.append(f"bad metric name {metric['name']!r}")
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} failed ops")
            if traced:
                check = record["span_check"]
                if check["children_outside_parent"] or check["negative_self_times"]:
                    problems.append(f"{name}: child span outside its parent")
                if check["self_plus_child_s"] > check["client_wall_s"]:
                    problems.append(f"{name}: span time exceeds wall time")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print(f"selfcheck: {'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = --traced --layers")
    parser.add_argument("--traced", action="store_true",
                        help="rerun with spans; print the per-layer sheet")
    parser.add_argument("--layers", action="store_true",
                        help="--traced plus the isolated layer probes")
    parser.add_argument("--out", default=None, help="result file (appended to)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    _import_product()
    from spec import WORKLOADS

    if args.selfcheck:
        return selfcheck()
    for name in args.workload:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    probes = bool(args.trace) or args.layers
    traced = probes or args.traced

    if len(args.workload) == 1:
        import layers

        record = run_one(
            args.workload[0], args.seed, args.seconds, traced,
            probe_calls=layers.CALLS if probes else 0,
        )
        print_record(record)
        if args.out:
            append_out(args.out, [record])
        print(contract_line(record))
        return 0 if record["failed"] == 0 else 1

    # Several workloads: a fresh interpreter each (first-run-in-process
    # effects were +-16% in probes, fresh processes +-3%).
    status = 0
    for name in args.workload or list(WORKLOADS):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
        ]
        command += ["--trace", "1"] if probes else ["--traced"] * traced
        if args.out:
            command += ["--out", args.out]
        status |= subprocess.run(command).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
