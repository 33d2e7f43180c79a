"""Run the benchmark over several seeds and save each checkout's result set.

    python3 perfbench/collect.py --runs 10 --out results.json
    python3 perfbench/collect.py --runs 10 --checkout ../parent --checkout . \\
        --out parent.json change.json

Each run is ``perfbench/run.py`` in its own process, from the root of the
checkout.  With two checkouts every seed runs on both, and the side that
runs first alternates from seed to seed.  The summary gives, per workload and
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound.  ``compare.py`` judges
two result sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from stats import quartiles, relative_spread

HERE = Path(__file__).resolve().parent


def machine() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_once(checkout: Path, workload: str, seed: int) -> Dict[str, Any]:
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if finished.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"with {finished.returncode}")
    lines = finished.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(line[len("info: "):]) for line in lines
                if line.startswith("info: "))
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "request_digest": info["request_digest"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(spec: Dict[str, Any], results: Dict[str, List[Dict[str, Any]]]) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in results.items():
        print(workload)
        names = runs[0]["metrics"] if runs else {}
        for name in names:
            values = [run["metrics"][name] for run in runs]
            q1, median, q3 = quartiles(values)
            spread = relative_spread(values)
            bound = bounds.get(name)
            mark = "" if bound is None else (
                "  ok" if spread < bound / 3 else "  WIDE" if spread > bound else "  >1/3")
            print(f"  {name:28s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:6.3f}"
                  + ("" if bound is None else f"  bound {bound:.2f}{mark}"))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--checkout", action="append", type=Path,
                        help="repeatable; default: this checkout")
    parser.add_argument("--out", nargs="+", required=True,
                        help="one result file per checkout")
    args = parser.parse_args(argv)
    checkouts = args.checkout or [HERE.parent]
    if len(args.out) != len(checkouts):
        parser.error("give one --out file per --checkout")
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sets = [{"machine": machine(), "benchmark": spec,
             "results": {w: [] for w in workloads}} for _ in checkouts]
    for workload in workloads:
        for number in range(args.runs):
            seed = args.first_seed + number
            order = list(range(len(checkouts)))
            if number % 2:
                order.reverse()
            for side in order:
                run = run_once(checkouts[side], workload, seed)
                sets[side]["results"][workload].append(run)
                print(f"{checkouts[side]} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)
    for checkout, path, result_set in zip(checkouts, args.out, sets):
        Path(path).write_text(json.dumps(result_set, indent=1) + "\n")
        print(f"== {checkout} -> {path}")
        summarize(spec, result_set["results"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
