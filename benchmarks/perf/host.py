"""Host calibration, machine profile and process-tree accounting (Linux)."""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import random
import resource
import statistics
import time
import zlib

_CLK_TCK = os.sysconf("SC_CLK_TCK")


#: Thread CPU seconds one :func:`spin` costs on the quiet floor of the box
#: the benchmark was frozen on.  Timings are reported in this reference
#: host's time: a host (or a moment) twice as slow has factor 2.0.
SPIN_REF_S = 0.0012
_POOL_BYTES = 8 * 1024 * 1024


@functools.cache
def _pool() -> bytes:
    return random.Random(1).randbytes(_POOL_BYTES)


def spin() -> None:
    """A fixed slice of the kinds of work the product spends its CPU on:
    bytecode, cache-missing memory reads, and slice + CRC + SHAKE + big-int
    XOR of 4 KiB blocks.  In probes the product slowed down more than a
    bytecode-only loop when the host got busy, and about as much as this
    mix."""
    pool = _pool()
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    offset = 12345
    for _ in range(700):
        offset = (offset * 1103515245 + 12345) % _POOL_BYTES
        acc += pool[offset]
    for _ in range(20):
        offset = (offset * 1103515245 + 12345) % (_POOL_BYTES - 4096)
        block = pool[offset:offset + 4096]
        acc += zlib.crc32(block)
        stream = hashlib.shake_256(block[:48]).digest(4096)
        block = (
            int.from_bytes(block, "little") ^ int.from_bytes(stream, "little")
        ).to_bytes(4096, "little")


def host_factor() -> float:
    """How slow this host is right now, relative to the reference.

    This shared box moves between 1.0x and 1.6x within seconds (the CPU
    time of a fixed computation moves, not just its wall time), which
    spread identical runs by 10-30%.  Thread CPU time is used so that
    waiting for the GIL while background threads run does not count.
    """
    start = time.thread_time()
    spin()
    return (time.thread_time() - start) / SPIN_REF_S


def host_factors(samples: int) -> list[float]:
    return [host_factor() for _ in range(samples)]


def calibrate_ms() -> float:
    """Median wall time of 25 spins, in ms.  Two result sets whose
    calibration differs by more than 10% were taken on hosts (or at
    moments) too different to compare without the normalisation."""
    runs = []
    for _ in range(25):
        start = time.perf_counter()
        spin()
        runs.append((time.perf_counter() - start) * 1e3)
    return statistics.median(runs)


def profile() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg()[0],
        "calib_ms": calibrate_ms(),
    }


def own_cpu_s() -> float:
    """user+sys CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ")".  Index 0 here is field 3 (state) of proc(5).
    return text[text.rindex(")") + 2:].split()


def _session_stats(session: int):
    """(pid, stat fields) of the live processes of a session: a server
    started with ``start_new_session=True`` and every worker it forked."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[3]) == session:
                yield int(entry), fields


def session_pids(session: int) -> list[int]:
    return [pid for pid, _fields in _session_stats(session)]


def tree_cpu_s(session: int) -> float:
    ticks = sum(
        int(fields[11]) + int(fields[12])  # utime + stime
        for _pid, fields in _session_stats(session)
    )
    return ticks / _CLK_TCK


def tree_peak_rss_mb(session: int) -> float:
    """VmHWM of the largest process of the session."""
    peak_kb = 0
    for pid in session_pids(session):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            pass
    return peak_kb / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
