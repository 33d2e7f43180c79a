"""Judge a change against its parent from two ``collect.py`` result sets.

    python3 perfbench/compare.py parent.json change.json

Runs are paired by seed.  For each workload (one row) and each end-to-end
metric the verdict is:

* ``improved``   -- the change wins at least 9 of every 10 pairs (ties count
  for neither side; at least 10 pairs) and the medians differ, in the better
  direction, by more than the parent's interquartile distance;
* ``unresolved`` -- otherwise, when the parent's own spread (interquartile
  distance over the median) is wider than the metric's bound, unless every
  run of the change reads better than every run of the parent;
* ``worse``      -- the change's median is worse than the parent's by more
  than the bound;
* ``no worse``   -- otherwise.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def judge(pairs: Sequence[Tuple[float, float]], better: str,
          bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median, + meaning better)."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = sign * (change_median - parent_median)
    relative = gain / parent_median if parent_median else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "improved", relative
    spread = (q3 - q1) / parent_median if parent_median else 0.0
    if spread > bound:
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("no worse" if every_run_better else "unresolved"), relative
    if -relative > bound:
        return "worse", relative
    return "no worse", relative


def paired(parent: List[dict], change: List[dict], name: str) -> List[Tuple[float, float]]:
    by_seed = {run["seed"]: run["metrics"][name] for run in change}
    return [(run["metrics"][name], by_seed[run["seed"]])
            for run in parent if run["seed"] in by_seed]


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    metrics = parent["benchmark"]["end_to_end"]
    any_worse = False
    for workload, runs in parent["results"].items():
        if workload not in change["results"]:
            print(f"{workload}: not in {args.change}")
            continue
        cells: Dict[str, str] = {}
        for metric in metrics:
            pairs = paired(runs, change["results"][workload], metric["name"])
            if not pairs:
                cells[metric["name"]] = "no pairs"
                continue
            verdict, relative = judge(pairs, metric["better"], metric["bound"])
            any_worse |= verdict == "worse"
            cells[metric["name"]] = f"{verdict} ({relative:+.1%}, {len(pairs)} pairs)"
        print(f"{workload:20s} " + " | ".join(f"{k}: {v}" for k, v in cells.items()))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
