"""The default-path benchmark: three workloads through ``strategy="auto"``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload family-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, default seed

``--trace 0`` runs the workload for ``--seconds`` in a fresh process and
prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs a
fixed number of requests three times with the same seed, each in a fresh
process -- untraced, traced, untraced -- checks that all gave the same
answers, and prints the per-layer metrics, including ``trace.overhead``
(traced over untraced time for the same requests).

Every answer is checked against a reference; a wrong answer exits non-zero.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

#: every workload's run ends within this many seconds
TIME_LIMIT = 170.0
#: a fixed-count (traced) run stops early after this many seconds
COUNT_LIMIT = 60.0


class BenchmarkError(RuntimeError):
    """A worker failed, timed out or returned wrong answers."""


def spawn(workload: str, seed: int, seconds: float, deadline: float,
          *extra: str) -> Dict[str, Any]:
    """One worker process; its JSON result.  Waits for it to end."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchmarkError(f"{workload}: worker did not finish in time")
    if finished.returncode != 0:
        raise BenchmarkError(f"{workload}: worker exited with {finished.returncode}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def run_workload(spec: Dict[str, Any], workload: str, seed: int, seconds: float,
                 trace: int, deadline: float) -> Dict[str, Any]:
    if not trace:
        result = spawn(workload, seed, seconds, deadline)
        declared = spec["end_to_end"]
    else:
        # Untraced runs before and after the traced one, so a drift in the
        # machine's speed over the three runs cancels out of the overhead.
        count = ["--fixed", "--setups", "1"]
        before = spawn(workload, seed, COUNT_LIMIT, deadline, *count)
        result = spawn(workload, seed, COUNT_LIMIT, deadline, *count, "--trace", "1")
        after = spawn(workload, seed, COUNT_LIMIT, deadline, *count)
        for plain in (before, after):
            if result["answers_digest"] != plain["answers_digest"]:
                raise BenchmarkError(
                    f"{workload}: the traced run's answers differ from the untraced run's"
                )
        untraced = (before["elapsed_s"] + after["elapsed_s"]) / 2
        result["metrics"]["trace.overhead"] = result["elapsed_s"] / untraced
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{workload} seed={seed} trace={trace}: {result['attempted']} requests, "
          f"{result['failed']} failed")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print("info: " + json.dumps(dict(
        result["info"], request_digest=result["request_digest"],
        answers_digest=result["answers_digest"],
    )))
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: List[str] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"no repro sources under {ROOT / 'src'} (or no BENCHMARK.json); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in chosen:
            deadline = time.monotonic() + TIME_LIMIT
            results[workload] = run_workload(
                spec, workload, args.seed, args.seconds, args.trace, deadline
            )
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if len(chosen) == 1:
        summary = results[chosen[0]]
    else:
        summary = {
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
