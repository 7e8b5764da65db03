"""Compare two result files of run.py by the benchmark's own bounds.

    python3 benchmarks/perf/compare.py A.json B.json

A is the base, B the candidate.  For every (workload, end-to-end metric)
the candidate's median may be worse than the base's by at most the bound:

    ok          within the bound
    regressed   worse by more than the bound
    unresolved  the run-to-run spread of either side (distance between the
                first and third quartile, as a share of the median) is wider
                than the bound, so the comparison cannot decide

One row per workload, every ratio with its base.  Exits 1 on any
``regressed`` or ``unresolved`` row.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import END_TO_END, WORKLOADS  # noqa: E402

CALIB_TOLERANCE = 0.10


def load(path: str) -> dict[str, list[dict]]:
    """workload -> its untraced runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def judge(metric, base: list[float], cand: list[float]) -> tuple[str, str]:
    """(verdict, 'candidate/base = ratio' text) for one metric."""
    base_med, cand_med = statistics.median(base), statistics.median(cand)
    ratio = cand_med / base_med
    worse = ratio - 1.0 if metric.better == "lower" else 1.0 - ratio
    if max(spread(base), spread(cand)) > metric.bound:
        verdict = "unresolved"
    elif worse > metric.bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return verdict, f"{cand_med:.6g}/{base_med:.6g}={ratio:.3f}"


def calib(runs_by_workload: dict[str, list[dict]]) -> float:
    return statistics.median(
        run["host"]["calib_ms"]
        for runs in runs_by_workload.values() for run in runs
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = load(argv[0]), load(argv[1])
    calib_base, calib_cand = calib(base), calib(cand)
    if abs(calib_cand / calib_base - 1.0) > CALIB_TOLERANCE:
        print(
            f"warning: host.calib_ms differs by more than "
            f"{CALIB_TOLERANCE:.0%} ({calib_cand:.2f}/{calib_base:.2f} ms): "
            "the host changed speed between the two sets; timings are in "
            "reference-host time, but read small differences with care"
        )
    worst = 0
    for name in WORKLOADS:
        if name not in base or name not in cand:
            print(f"{name}: missing from one side")
            worst = 1
            continue
        cells = []
        row_verdict = "ok"
        for metric in END_TO_END:
            verdict, text = judge(
                metric,
                [run["metrics"][metric.name]["value"] for run in base[name]],
                [run["metrics"][metric.name]["value"] for run in cand[name]],
            )
            cells.append(f"{metric.name} {text} {verdict}")
            if verdict == "regressed" or (
                verdict == "unresolved" and row_verdict == "ok"
            ):
                row_verdict = verdict
        failed = sum(run["failed"] for run in cand[name])
        if failed > sum(run["failed"] for run in base[name]):
            row_verdict = "regressed"
            cells.append(f"failed ops {failed}")
        print(
            f"{name} [{len(base[name])} vs {len(cand[name])} runs] "
            f"{row_verdict}: " + "; ".join(cells)
        )
        worst |= row_verdict != "ok"
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
