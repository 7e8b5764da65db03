"""``repro-stats``: pretty-print (or watch) a live server's OP_STATS.

Examples::

    # One snapshot of a local repro-serve:
    python -m repro.tools.stats_cli --port 7475

    # Refresh every 2 seconds with per-second rates (cipher bytes/s,
    # request/s) computed from consecutive snapshots:
    python -m repro.tools.stats_cli --port 7475 --watch 2

    # Raw JSON, e.g. to pipe into jq:
    python -m repro.tools.stats_cli --port 7475 --json

The server's OP_STATS response is a merged snapshot -- ``server``
(queue/latency), ``engine`` (DB counters, block cache, tree shape),
``crypto`` (init-vs-bulk cipher cost), ``integrity`` (AEAD tag
verifications/failures, quarantines, freshness checks, trusted-counter
value), ``keyclient`` (KDS round-trips), and ``replication``
(per-replica position and lag).  ``render`` is a
pure function over such dictionaries so it is testable without sockets.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Sections rendered in this order when present.
SECTIONS = ("server", "engine", "crypto", "integrity", "keyclient")

#: Flat-key suffixes that are distribution statistics, not counters --
#: showing a per-second rate for these would be meaningless.
_NON_RATE_SUFFIXES = (".mean", ".p50", ".p95", ".p99", ".max", ".min")


def _is_rateable(key: str, value) -> bool:
    if not isinstance(value, (int, float)):
        return False
    if key.endswith(_NON_RATE_SUFFIXES):
        return False
    # Gauges (positions, lags, queue depths, usage) are levels, not flows.
    for marker in ("position", "lag", "usage", "depth", "streams",
                   "memtables", "sequence", "live_files", "total_"):
        if marker in key:
            return False
    return True


def _fmt_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _fmt_bytes_rate(nbytes: float) -> str:
    for unit in ("B/s", "KiB/s", "MiB/s", "GiB/s"):
        if abs(nbytes) < 1024 or unit == "GiB/s":
            return f"{nbytes:,.1f} {unit}"
        nbytes /= 1024
    return f"{nbytes:,.1f} GiB/s"


def _section_lines(
    title: str,
    current: dict,
    previous: dict | None,
    interval: float | None,
) -> list[str]:
    lines = [f"== {title} =="]
    if not current:
        lines.append("  (empty)")
        return lines
    width = max(len(key) for key in current)
    for key in sorted(current):
        value = current[key]
        line = f"  {key:<{width}}  {_fmt_value(value)}"
        if (
            previous is not None
            and interval
            and _is_rateable(key, value)
            and isinstance(previous.get(key), (int, float))
        ):
            rate = (value - previous[key]) / interval
            if rate:
                line += f"   ({rate:,.1f}/s)"
        lines.append(line)
    return lines


def _cipher_summary(
    crypto: dict, previous: dict | None, interval: float | None
) -> list[str]:
    """The paper's attribution headline: cipher throughput, init vs bulk."""
    if not crypto:
        return []
    lines = ["== cipher attribution =="]
    total_bytes = crypto.get("crypto.bytes", 0)
    bulk_s = crypto.get("crypto.bulk_s.sum", 0.0)
    init_s = crypto.get("crypto.init_s.sum", 0.0)
    inits = crypto.get("crypto.context_inits", 0)
    lines.append(
        f"  total: {_fmt_value(total_bytes)} bytes ciphered, "
        f"{_fmt_value(inits)} context inits, "
        f"bulk {bulk_s:.4f}s / init {init_s:.4f}s"
    )
    if previous is not None and interval:
        dbytes = total_bytes - previous.get("crypto.bytes", 0)
        dbulk = bulk_s - previous.get("crypto.bulk_s.sum", 0.0)
        dinit = init_s - previous.get("crypto.init_s.sum", 0.0)
        busy = (dbulk + dinit) / interval * 100.0
        lines.append(
            f"  rate:  {_fmt_bytes_rate(dbytes / interval)}, "
            f"cipher busy {busy:.2f}% "
            f"(bulk {dbulk / interval * 100.0:.2f}% / "
            f"init {dinit / interval * 100.0:.2f}%)"
        )
    return lines


def _obs_lines(obs: dict) -> list[str]:
    """The derived-signals panel (already windowed/derived server-side; no
    rate annotation needed)."""
    lines: list[str] = []
    signals = obs.get("signals") or {}
    if signals:
        lines.append("== obs: derived signals ==")
        lines.append(
            f"  stalls      {_fmt_value(signals.get('stall_seconds', 0.0))}s "
            f"({_fmt_value(signals.get('stall_count', 0))} events, "
            f"{_fmt_value(signals.get('slowdown_writes', 0))} slowdowns)"
        )
        lines.append(
            f"  amp         write {_fmt_value(signals.get('write_amp', 0.0))}"
            f" / read {_fmt_value(signals.get('read_amp', 0.0))}"
            f" / space {_fmt_value(signals.get('space_amp', 0.0))}"
        )
        debt = signals.get("level_debt_bytes") or []
        busy = [f"L{i}:{_fmt_value(b)}" for i, b in enumerate(debt) if b]
        lines.append(
            f"  debt        {_fmt_value(signals.get('compaction_debt_bytes', 0))}"
            f" bytes ({' '.join(busy) if busy else 'none'})"
        )
        lines.append(
            f"  rates       {_fmt_bytes_rate(signals.get('write_bytes_per_s', 0.0))}"
            f" in, {_fmt_value(signals.get('get_ops_per_s', 0.0))} get/s, "
            f"{_fmt_value(signals.get('scan_ops_per_s', 0.0))} scan/s"
        )
        lines.append(
            f"  kds         p95 {_fmt_value(signals.get('kds_p95_s', 0.0))}s "
            f"({_fmt_value(signals.get('kds_count', 0))} calls); "
            f"encrypt {_fmt_value(signals.get('encrypt_s_per_compaction_byte', 0.0))}"
            " s/compaction-byte"
        )
    return lines


def render(
    stats: dict,
    previous: dict | None = None,
    interval: float | None = None,
) -> str:
    """Format one OP_STATS snapshot; with ``previous`` + ``interval``,
    annotate counters with per-second rates."""
    lines: list[str] = []
    committed = stats.get("committed_sequence")
    if committed is not None:
        lines.append(f"committed_sequence: {_fmt_value(committed)}")
    obs = stats.get("obs")
    if obs:
        lines.extend(_obs_lines(obs))
    for section in SECTIONS:
        current = stats.get(section)
        if current is None:
            continue
        prev_section = (previous or {}).get(section)
        lines.extend(_section_lines(section, current, prev_section, interval))
        if section == "crypto":
            lines.extend(_cipher_summary(current, prev_section, interval))
    replication = stats.get("replication")
    if replication is not None:
        lines.append("== replication ==")
        if not replication:
            lines.append("  (no subscribed replicas)")
        for replica_id in sorted(replication):
            entry = replication[replica_id]
            lines.append(
                f"  {replica_id}: position={_fmt_value(entry.get('position'))}"
                f" lag={_fmt_value(entry.get('lag'))}"
            )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.stats_cli",
        description="Pretty-print a live KVServer's OP_STATS snapshot.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7475)
    parser.add_argument("--server-id", default=None,
                        help="AUTH identity for servers with --require-auth")
    parser.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                        help="refresh every N seconds, annotating rates")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw snapshot as JSON")
    parser.add_argument("--timeout", type=float, default=5.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.service.client import KVClient

    client = KVClient(
        args.host, args.port,
        timeout_s=args.timeout, server_id=args.server_id,
    )
    try:
        previous: dict | None = None
        prev_time: float | None = None
        while True:
            stats = client.stats()
            now = time.monotonic()
            if args.as_json:
                print(json.dumps(stats, indent=2, sort_keys=True))
            else:
                interval = (
                    now - prev_time if prev_time is not None else None
                )
                if args.watch is not None:
                    print("\x1b[2J\x1b[H", end="")  # clear screen, home
                print(render(stats, previous, interval), flush=True)
            if args.watch is None:
                return 0
            previous, prev_time = stats, now
            time.sleep(args.watch)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


if __name__ == "__main__":
    sys.exit(main())
