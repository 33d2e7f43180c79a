#!/usr/bin/env python3
"""Compare two pytest-benchmark JSON files and fail on regressions.

Usage::

    python benchmarks/compare_bench.py BENCH_baseline.json BENCH_pr.json \
        [--tolerance 1.25] [--ratio-tolerance 1.5]

Two gates:

* **medians** — a benchmark regresses when its median run time exceeds
  ``tolerance`` times the baseline median (default 1.25, i.e. >25 % slower,
  overridable via the ``BENCH_TOLERANCE`` environment variable).  Medians are
  machine-dependent, so this gate is noisy across runner generations.
* **speedup ratios** — benchmarks that record dimensionless speedups in
  ``extra_info`` (keys starting with ``speedup``, e.g. compiled-vs-treewalk,
  vectorized-vs-set) are additionally gated on the
  *ratio*: it regresses when it falls below the baseline ratio divided by
  ``ratio_tolerance`` (default 1.5, env ``BENCH_RATIO_TOLERANCE``).  Both
  sides of a ratio move with the machine, so this gate is portable across
  hardware — the point of the ROADMAP's baseline-portability item.

Benchmarks are matched by their fully-qualified test name.  Benchmarks (or
ratio keys) present in only one file are reported but never fail the gate,
so adding or retiring benchmarks does not break CI.

The exit status is 0 when nothing regressed and 1 otherwise; the summary
tables are always printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Tuple


def load_benchmarks(path: str) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Map benchmark names to median seconds and ``speedup*`` extra ratios.

    Ratio keys are ``"<fullname>::<extra_info key>"``.
    """
    with open(path) as handle:
        payload = json.load(handle)
    medians: Dict[str, float] = {}
    ratios: Dict[str, float] = {}
    for entry in payload.get("benchmarks", []):
        name = entry["fullname"]
        medians[name] = float(entry["stats"]["median"])
        for key, value in (entry.get("extra_info") or {}).items():
            if key.startswith("speedup") and isinstance(value, (int, float)):
                ratios[f"{name}::{key}"] = float(value)
    return medians, ratios


def compare(
    baseline: Dict[str, float], current: Dict[str, float], tolerance: float
) -> Tuple[list, list, list]:
    """Split benchmarks into (regressions, ok, unmatched) triples.

    A benchmark regresses when ``current / baseline > tolerance`` — for
    medians that means *slower*, and the same shape gates ratios by passing
    the inverted values (see :func:`compare_ratios`).
    """
    regressions = []
    ok = []
    unmatched = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline or name not in current:
            side = "baseline" if name in baseline else "current"
            unmatched.append((name, side))
            continue
        before, after = baseline[name], current[name]
        ratio = after / before if before > 0 else float("inf")
        record = (name, before, after, ratio)
        if ratio > tolerance:
            regressions.append(record)
        else:
            ok.append(record)
    return regressions, ok, unmatched


def compare_ratios(
    baseline: Dict[str, float], current: Dict[str, float], tolerance: float
) -> Tuple[list, list, list]:
    """Like :func:`compare`, but for speedup ratios (bigger is better).

    A ratio regresses when ``baseline / current > tolerance``, i.e. the
    current speedup fell below ``baseline / tolerance``.
    """
    inverted_baseline = {k: 1.0 / v for k, v in baseline.items() if v > 0}
    inverted_current = {k: 1.0 / v for k, v in current.items() if v > 0}
    regressions, ok, unmatched = compare(
        inverted_baseline, inverted_current, tolerance
    )
    def restore(records):
        return [
            (name, 1.0 / before, 1.0 / after, ratio)
            for name, before, after, ratio in records
        ]
    return restore(regressions), restore(ok), unmatched


def _print_table(title: str, ok, regressions, unmatched, tolerance: float,
                 unit: str) -> None:
    header = f"{title:<100} {'baseline':>12} {'current':>12} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for name, before, after, ratio in ok + regressions:
        flag = "  REGRESSION" if ratio > tolerance else ""
        print(f"{name:<100} {before:>12.6f} {after:>12.6f} {ratio:>8.2f}{flag}")
    for name, side in unmatched:
        print(f"{name:<100} (only in {side}; ignored)")
    print(
        f"{len(ok)} ok, {len(regressions)} regression(s), "
        f"{len(unmatched)} unmatched, tolerance {tolerance:.2f}x ({unit})\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_baseline.json")
    parser.add_argument("current", help="freshly measured BENCH_pr.json")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "1.25")),
        help="fail when current/baseline median exceeds this ratio "
        "(default 1.25 = 25%% slower; env BENCH_TOLERANCE overrides)",
    )
    parser.add_argument(
        "--ratio-tolerance",
        type=float,
        default=float(os.environ.get("BENCH_RATIO_TOLERANCE", "1.5")),
        help="fail when a recorded speedup ratio falls below baseline/this "
        "(default 1.5; env BENCH_RATIO_TOLERANCE overrides); dimensionless, "
        "so it is stable across runner hardware",
    )
    args = parser.parse_args(argv)

    base_medians, base_ratios = load_benchmarks(args.baseline)
    cur_medians, cur_ratios = load_benchmarks(args.current)

    regressions, ok, unmatched = compare(base_medians, cur_medians, args.tolerance)
    _print_table("benchmark (median seconds)", ok, regressions, unmatched,
                 args.tolerance, "median")

    ratio_regressions, ratio_ok, ratio_unmatched = compare_ratios(
        base_ratios, cur_ratios, args.ratio_tolerance
    )
    _print_table("benchmark (speedup ratio)", ratio_ok, ratio_regressions,
                 ratio_unmatched, args.ratio_tolerance, "speedup")

    failed = bool(regressions or ratio_regressions)
    if failed:
        print("FAIL: benchmark regression(s) against the committed baseline")
        return 1
    print("OK: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
